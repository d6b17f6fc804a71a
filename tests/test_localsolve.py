"""Constrained patch solver tests against dense KKT oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from mslab import coeff, fem, grid, localsolve, msbasis
from mslab.errors import DependentConstraints


def make_patch_system(N=4, n=16, center=5, m=1, seed=0, contrast=1e3):
    pair = grid.NestedPair(N, n)
    field = coeff.gen_inclusions(pair, 0.15, contrast, seed=seed)
    patch = grid.build_patch(pair, center, m)
    return pair, localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, patch)


def dense_kkt(sys, B, k):
    """Oracle: factor the full KKT block system densely; returns phi."""
    A = sys.A.toarray()
    nd, L = B.shape
    K = np.zeros((nd + L, nd + L))
    K[:nd, :nd] = A
    K[:nd, nd:] = B
    K[nd:, :nd] = B.T
    rhs = np.zeros(nd + L)
    rhs[nd + k] = 1.0
    return np.linalg.solve(K, rhs)[:nd]


def test_saddle_matches_dense_kkt():
    rng = np.random.default_rng(0)
    for trial in range(20):
        _, sys = make_patch_system(seed=trial, contrast=10.0 ** rng.integers(0, 5))
        assert sys.ndof <= 200
        B = sys.M @ rng.standard_normal((sys.ndof, 3))
        cons = localsolve.ConstraintSet(B)
        k = int(rng.integers(0, 3))
        phi = localsolve.solve_saddle_block(sys, cons, targets=[k])[:, 0]
        phi_o = dense_kkt(sys, B, k)
        scale = max(np.abs(phi_o).max(), 1.0)
        np.testing.assert_allclose(phi, phi_o, atol=1e-10 * scale)


def test_schur_complement_matches_dense():
    """S = W^T W with W = L^{-1} B equals B^T A^{-1} B."""
    _, sys = make_patch_system()
    rng = np.random.default_rng(3)
    B = sys.M @ rng.standard_normal((sys.ndof, 5))
    _, cf = localsolve._schur_solve(sys, B)
    Ls = np.tril(cf[0])
    oracle = B.T @ np.linalg.solve(sys.A.toarray(), B)
    np.testing.assert_allclose(Ls @ Ls.T, oracle, atol=1e-10 * np.abs(oracle).max())


def test_saddle_satisfies_constraints():
    _, sys = make_patch_system()
    rng = np.random.default_rng(1)
    B = sys.M @ rng.standard_normal((sys.ndof, 4))
    Phi = localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(B))
    np.testing.assert_allclose(B.T @ Phi, np.eye(4), atol=1e-10)


def test_saddle_residual_orthogonal_to_constraint_complement():
    """a(phi, v) = 0 for every v with B^T v = 0."""
    _, sys = make_patch_system()
    rng = np.random.default_rng(2)
    B = sys.M @ rng.standard_normal((sys.ndof, 3))
    phi = localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(B))[:, 0]
    r = sys.A @ phi
    # residual must lie in span(B)
    coefs, *_ = np.linalg.lstsq(B, r, rcond=None)
    np.testing.assert_allclose(B @ coefs, r, atol=1e-8 * np.abs(r).max())


def test_saddle_block_targets_subset():
    _, sys = make_patch_system()
    rng = np.random.default_rng(4)
    B = sys.M @ rng.standard_normal((sys.ndof, 5))
    cons = localsolve.ConstraintSet(B)
    sub = localsolve.solve_saddle_block(sys, cons, targets=np.array([1, 3]))
    full = localsolve.solve_saddle_block(sys, cons)
    np.testing.assert_allclose(sub, full[:, [1, 3]], atol=1e-13)


def test_dependent_constraints_detected():
    _, sys = make_patch_system()
    rng = np.random.default_rng(5)
    b = sys.M @ rng.standard_normal(sys.ndof)
    B = np.column_stack([b, 2.0 * b])
    with pytest.raises(DependentConstraints):
        localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(B))


def lod_constraints(sys):
    """The sparse LOD block: mass pairings with every coarse cell's Q1 shapes."""
    pair = sys.patch.pair
    shapes = msbasis._cell_shapes_matrix(pair, sys.patch.coarse_elems, fem.DIFFUSION)
    return (sys.system.m_pair @ shapes).tocsr()


def test_sparse_constraints_take_gram_path_and_match_dense():
    """A sparse block is solved through SpdFactor.gram and A^{-1}(B C); it
    agrees with the dense W = L^{-1} B path and with the dense KKT oracle."""
    _, sys = make_patch_system()
    B = lod_constraints(sys)
    cons = localsolve.ConstraintSet(B)
    assert sp.issparse(cons.B) and cons.count == B.shape[1]
    rhs = np.random.default_rng(8).standard_normal((B.shape[1], 4))
    sparse = localsolve.solve_saddle_block(sys, cons, rhs=rhs)
    dense = localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(B.toarray()), rhs=rhs)
    assert isinstance(sparse, np.ndarray) and sparse.shape == dense.shape
    np.testing.assert_allclose(sparse, dense, atol=1e-10 * np.abs(dense).max())
    phi = localsolve.solve_saddle_block(sys, cons, targets=[5])[:, 0]
    phi_o = dense_kkt(sys, B.toarray(), 5)
    np.testing.assert_allclose(phi, phi_o, atol=1e-10 * np.abs(phi_o).max())


def test_sparse_duplicate_column_detected():
    _, sys = make_patch_system()
    B = lod_constraints(sys)
    dup = sp.hstack([B, B[:, 3]]).tocsr()
    with pytest.raises(DependentConstraints):
        localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(dup))


def test_constraint_set_from_local_functions():
    _, sys = make_patch_system()
    rng = np.random.default_rng(6)
    F = rng.standard_normal((sys.ndof, 2))
    cons = localsolve.ConstraintSet.from_local_functions(sys, F)
    np.testing.assert_allclose(cons.B, sys.M @ F)
    assert cons.count == 2


def test_apply_local_inverse_is_a_inv_m():
    _, sys = make_patch_system()
    rng = np.random.default_rng(7)
    g = rng.standard_normal(sys.ndof)
    y = localsolve.apply_local_inverse(sys, g)
    np.testing.assert_allclose(sys.A @ y, sys.M @ g, atol=1e-10)


def test_pair_full_matches_mass_on_interior():
    """m_pair pairs a full fine-grid function against the interior tests; on
    a function supported in the interior that is the patch mass matrix."""
    pair, sys = make_patch_system()
    v_full = np.zeros(pair.fine.n_nodes)
    v_full[sys.patch.interior_nodes] = np.arange(sys.ndof, dtype=float)
    lhs = sys.system.m_pair @ v_full
    rhs = sys.M @ v_full[sys.patch.interior_nodes]
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
