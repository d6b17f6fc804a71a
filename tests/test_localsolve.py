"""Constrained patch solver tests against dense KKT oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from mslab import coeff, fem, grid, localsolve, msbasis
from mslab.errors import DependentConstraints


def make_patch_system(N=4, n=16, center=5, m=1, seed=0, contrast=1e3):
    pair = grid.NestedPair(N, n)
    field = coeff.gen_inclusions(pair, 0.15, contrast, seed=seed)
    patch = grid.Patch(pair, center, m)
    return pair, localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)


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
        phi = localsolve.solve_saddle_block(sys, cons, rhs=np.eye(3)[:, [k]])[:, 0]
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
    sub = localsolve.solve_saddle_block(sys, cons, rhs=np.eye(5)[:, [1, 3]])
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
    phi = localsolve.solve_saddle_block(sys, cons, rhs=np.eye(cons.count)[:, [5]])[:, 0]
    phi_o = dense_kkt(sys, B.toarray(), 5)
    np.testing.assert_allclose(phi, phi_o, atol=1e-10 * np.abs(phi_o).max())


def test_sparse_duplicate_column_detected():
    _, sys = make_patch_system()
    B = lod_constraints(sys)
    dup = sp.hstack([B, B[:, 3]]).tocsr()
    with pytest.raises(DependentConstraints):
        localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(dup))


def test_constraint_set_dense_block():
    """A dense set keeps its block as a float array, a vector as one column."""
    _, sys = make_patch_system()
    rng = np.random.default_rng(6)
    F = rng.standard_normal((sys.ndof, 2))
    cons = localsolve.ConstraintSet(sys.M @ F)
    np.testing.assert_array_equal(cons.B, sys.M @ F)
    assert cons.count == 2 and cons.schur is None
    one = localsolve.ConstraintSet(sys.M @ F[:, 0])
    assert one.B.shape == (sys.ndof, 1) and one.count == 1


def test_pair_full_matches_mass_on_interior():
    """m_pair pairs a full fine-grid function against the interior tests; on
    a function supported in the interior that is the patch mass matrix."""
    pair, sys = make_patch_system()
    v_full = np.zeros(pair.fine.n_nodes)
    v_full[sys.patch.interior_nodes] = np.arange(sys.ndof, dtype=float)
    lhs = sys.system.m_pair @ v_full
    rhs = sys.M @ v_full[sys.patch.interior_nodes]
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def column_nests(kind):
    """The global system and both nests of coarse column 2 on a 5 x 5 coarse
    grid at m=2: centres 2, 7, 12 share the bottom edge (natural order) and
    17, 22 the top edge (reversed order)."""
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=3)
    system = fem.assemble(pair, field, kind)
    patches = grid.build_all_patches(pair, 2)
    nests = [(ks, rev) for ks, rev in msbasis.patch_nests(patches) if ks[0] % 5 == 2]
    assert sorted(nests) == [([12, 7, 2], False), ([17, 22], True)]
    return system, [([patches[k] for k in ks], rev) for ks, rev in nests]


def nest_systems(system, patches, reverse):
    master = localsolve.PatchSystem.build(system, patches[0], reverse=reverse)
    return [master] + [localsolve.PatchSystem.build(system, p, within=master)
                       for p in patches[1:]]


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_nested_systems_solve_in_natural_order(kind):
    """Members on a leading block of the master's factor, natural or reversed,
    solve like a patch system with its own factor; only the master factors."""
    system, nests = column_nests(kind)
    rng = np.random.default_rng(9)
    for patches, reverse in nests:
        systems = nest_systems(system, patches, reverse)
        for sys in systems:
            own = localsolve.PatchSystem.build(system, sys.patch)
            b = rng.standard_normal((sys.ndof, 3))
            x = own.solve(b)
            assert np.abs(sys.solve(b) - x).max() <= 1e-12 * np.abs(x).max()
            assert np.abs(sys.solve(b[:, 0]) - x[:, 0]).max() <= 1e-12 * np.abs(x).max()
        assert all(s._factor._band.base is systems[0]._factor._band for s in systems[1:])


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_nest_schur_blocks_match_per_member_gram(kind, monkeypatch):
    """lod_constraints returns every set of the nest with its Schur block,
    equal to the member's own gram to 1e-12 relative, in natural and
    reversed nests, from one gram call; the members' solves then match
    solves from scratch."""
    system, nests = column_nests(kind)
    gram, calls = localsolve.PatchSystem.gram, []

    def counting(self, B, blocks=None):
        calls.append(self.patch.center)
        return gram(self, B, blocks)

    for patches, reverse in nests:
        systems = nest_systems(system, patches, reverse)
        monkeypatch.setattr(localsolve.PatchSystem, "gram", counting)
        sets = msbasis.lod_constraints(systems)
        monkeypatch.undo()
        assert calls == [systems[0].patch.center]
        calls.clear()
        for sys, cons in zip(systems, sets):
            own = localsolve.PatchSystem.build(system, sys.patch)
            want = own.gram(cons.B)
            assert np.abs(cons.schur - want).max() <= 1e-12 * np.abs(want).max()
            rhs = np.ones((cons.count, 2))
            got = localsolve.solve_saddle_block(sys, cons, rhs=rhs)
            ref = localsolve.solve_saddle_block(own, localsolve.ConstraintSet(cons.B), rhs=rhs)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def same_csr(X, Y):
    """The same CSR arrays, entry for entry and in the same order."""
    return (X.shape == Y.shape and np.array_equal(X.indptr, Y.indptr)
            and np.array_equal(X.indices, Y.indices) and np.array_equal(X.data, Y.data))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_members_cut_from_master_match_on_patch(kind, m, monkeypatch):
    """Every nest's members, cut from the master's system, have exactly the
    stiffness, mass and m_pair of on_patch, and LOD blocks cut from the
    master's exactly equal to the member's own m_pair @ shapes; on_patch
    runs for the masters alone."""
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=3)
    system = fem.assemble(pair, field, kind)
    patches = grid.build_all_patches(pair, m)
    nests = [([patches[k] for k in ks], rev) for ks, rev in msbasis.patch_nests(patches)]
    assert {rev for ps, rev in nests if len(ps) > 1} == {False, True}
    on_patch, calls = fem.AssembledSystem.on_patch, []

    def counting(self, patch):
        calls.append(patch.center)
        return on_patch(self, patch)

    monkeypatch.setattr(fem.AssembledSystem, "on_patch", counting)
    built = [(nest_systems(system, ps, rev), rev) for ps, rev in nests]
    assert calls == [ps[0].center for ps, _ in nests]
    monkeypatch.undo()
    for systems, reverse in built:
        sets = msbasis.lod_constraints(systems)
        for sys, cons in zip(systems, sets):
            own = system.on_patch(sys.patch)
            for name in ("stiffness", "mass", "m_pair"):
                assert same_csr(getattr(sys.system, name), getattr(own, name)), name
            assert np.array_equal(sys.system.dofs, own.dofs)
            shapes = msbasis._cell_shapes_matrix(pair, sys.patch.coarse_elems, kind)
            assert same_csr(cons.B, own.m_pair @ shapes)


def test_nesting_is_checked():
    """A patch whose DOFs are not the leading (natural) or trailing (reversed)
    block of the master's raises, as do coarse cells that do not nest."""
    system, [(bottom, _), (top, _)] = column_nests(fem.DIFFUSION)
    for master, other, reverse in [(bottom[0], top[1], False), (top[0], bottom[2], True)]:
        msys = localsolve.PatchSystem.build(system, master, reverse=reverse)
        with pytest.raises(ValueError):
            localsolve.PatchSystem.build(system, other, within=msys)
    natural = nest_systems(system, bottom, False)
    with pytest.raises(ValueError):
        msbasis.lod_constraints([natural[1], natural[0]])
