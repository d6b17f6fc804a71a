"""FEM kernel tests: element matrices, assembly, solvers and convergence."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mslab import coeff, fem, grid, msbasis
from mslab.errors import NotSPD


def unit_field(pair):
    return coeff.CoefficientField(np.ones((pair.fine.n, pair.fine.n)))


def test_element_stiffness_scalar_properties():
    K = fem.element_stiffness(fem.DIFFUSION, 1.0, 0.1)
    np.testing.assert_allclose(K, K.T)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)   # constants in kernel
    w = np.linalg.eigvalsh(K)
    assert abs(w[0]) < 1e-14 and w[1] > 0                        # rank 3


def test_element_stiffness_quadrature_oracle():
    """Compare the closed-form scalar stiffness to 2x2 Gauss integration."""
    K = np.zeros((4, 4))
    for xi in fem._GAUSS:
        for eta in fem._GAUSS:
            dxi, deta = fem._shape_grads(xi, eta)
            G = np.vstack([dxi, deta])
            K += 0.25 * G.T @ G
    np.testing.assert_allclose(K, fem._K_SCALAR, atol=1e-14)


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_element_stiffness_on_coefficient_arrays(kind):
    """An array of coefficients gives the stack of per-element matrices, bit
    for bit; assemble relies on this."""
    rng = np.random.default_rng(4)
    lam, mu = 10.0 ** rng.uniform(0, 4, (2, 7))
    if kind == fem.DIFFUSION:
        stacked = fem.element_stiffness(kind, lam, 0.1)
        single = [fem.element_stiffness(kind, a, 0.1) for a in lam]
    else:
        stacked = fem.element_stiffness(kind, (lam, mu), 0.1)
        single = [fem.element_stiffness(kind, (a, b), 0.1) for a, b in zip(lam, mu)]
    assert np.array_equal(stacked, np.stack(single))


def test_element_mass_integrates_constants():
    h = 0.25
    M = fem.element_mass(h)
    assert abs(M.sum() - h * h) < 1e-15                          # integral of 1
    np.testing.assert_allclose(M, M.T)
    assert np.linalg.eigvalsh(M)[0] > 0


def test_elasticity_element_rigid_body_modes():
    Ke = fem.element_stiffness(fem.ELASTICITY, (1.0, 1.0), 0.5)
    np.testing.assert_allclose(Ke, Ke.T, atol=1e-14)
    w = np.linalg.eigvalsh(Ke)
    assert np.all(np.abs(w[:3]) < 1e-12)                         # 3 rigid body modes
    assert w[3] > 1e-10
    # translations explicitly
    tx = np.zeros(8); tx[0::2] = 1.0
    ty = np.zeros(8); ty[1::2] = 1.0
    np.testing.assert_allclose(Ke @ tx, 0.0, atol=1e-13)
    np.testing.assert_allclose(Ke @ ty, 0.0, atol=1e-13)


def test_elasticity_mass_blocks():
    M = fem.element_mass(0.5, fem.ELASTICITY)
    np.testing.assert_allclose(M[0::2, 0::2], fem.element_mass(0.5))
    np.testing.assert_allclose(M[0::2, 1::2], 0.0)


def test_assemble_global_shapes():
    pair = grid.NestedPair(2, 8)
    sysd = fem.assemble(pair, unit_field(pair), fem.DIFFUSION)
    assert sysd.ndof == 49                                       # (n-1)^2 free nodes
    syse = fem.assemble(pair, unit_field(pair), fem.ELASTICITY)
    assert syse.ndof == 98


def test_assemble_patch_matches_submatrix():
    """Patch assembly equals the global matrix restricted to the patch DOFs
    when the patch spans the whole mesh."""
    pair = grid.NestedPair(3, 9)
    field = coeff.gen_inclusions(pair, 0.1, 1e3, seed=1)
    gsys = fem.assemble(pair, field, fem.DIFFUSION)
    p = grid.build_patch(pair, 4, 5)                             # whole domain
    psys = fem.assemble(pair, field, fem.DIFFUSION, patch=p)
    np.testing.assert_array_equal(psys.dofs, gsys.dofs)
    np.testing.assert_allclose(psys.stiffness.toarray(), gsys.stiffness.toarray())
    np.testing.assert_allclose(psys.mass.toarray(), gsys.mass.toarray())


def test_m_pair_consistent_with_mass():
    pair = grid.NestedPair(3, 9)
    field = unit_field(pair)
    sys_ = fem.assemble(pair, field, fem.DIFFUSION)
    v_full = np.cos(np.arange(sys_.n_full) * 0.1)
    lhs = sys_.m_pair @ v_full
    # against a vector supported on the free DOFs, m_pair reduces to the mass
    w = np.zeros(sys_.n_full)
    w[sys_.dofs] = v_full[sys_.dofs]
    np.testing.assert_allclose(sys_.m_pair @ w, sys_.mass @ v_full[sys_.dofs])
    assert lhs.shape == (sys_.ndof,)


def test_spd_factor_rejects_indefinite():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))        # eigenvalues 3, -1
    with pytest.raises(NotSPD):
        fem.SpdFactor(A)


@pytest.mark.parametrize("dense", [
    [[4.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 4.0]],         # zero diagonal entry
    [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],         # positive diagonal, pivot 2 is 0
], ids=["zero-diagonal", "pivot-2"])
def test_spd_factor_rejects_singular_pivot(dense):
    with pytest.raises(NotSPD):
        fem.SpdFactor(sp.csc_matrix(np.array(dense)))


def patch_stiffness(kind, center, m=1):
    """Stiffness of a clipped corner (center 0) or interior (center 12) patch."""
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=3)
    return fem.assemble(pair, field, kind, patch=grid.build_patch(pair, center, m)).stiffness


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
@pytest.mark.parametrize("center", [0, 12], ids=["corner", "centre"])
@pytest.mark.parametrize("ncols", [None, 7], ids=["vector", "block"])
def test_spd_factor_solve_dense_oracle(kind, center, ncols):
    A = patch_stiffness(kind, center)
    rng = np.random.default_rng(center)
    b = rng.standard_normal(A.shape[0] if ncols is None else (A.shape[0], ncols))
    x = fem.SpdFactor(A).solve(b)
    oracle = np.linalg.solve(A.toarray(), b)
    assert x.shape == b.shape
    assert np.abs(x - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_spd_factor_halves_compose_to_solve(kind):
    A = patch_stiffness(kind, 12)
    f = fem.SpdFactor(A)
    b = np.random.default_rng(1).standard_normal((A.shape[0], 3))
    x = f.solve(b)
    np.testing.assert_allclose(f.solve_upper(f.solve_lower(b)), x,
                               atol=1e-12 * np.abs(x).max())
    # W = L^{-1} b gives the energy form: b^T A^{-1} b = W^T W
    W = f.solve_lower(b)
    np.testing.assert_allclose(W.T @ W, b.T @ x, rtol=1e-12)


def test_spd_factor_reads_bandwidth_from_matrix():
    """A symmetric permutation spreads the band over the whole matrix; the
    factor must still solve it exactly."""
    A = patch_stiffness(fem.DIFFUSION, 12).tocsr()
    perm = np.random.default_rng(2).permutation(A.shape[0])
    Ap = A[perm][:, perm]
    low = sp.tril(Ap).tocoo()
    assert (low.row - low.col).max() > A.shape[0] // 2
    b = np.cos(np.arange(A.shape[0]))
    oracle = np.linalg.solve(Ap.toarray(), b)
    x = fem.SpdFactor(Ap).solve(b)
    assert np.abs(x - oracle).max() <= 1e-10 * np.abs(oracle).max()


def patch_lod_block(kind, center, m=1):
    """Stiffness and the sparse LOD constraint block (mass pairings with the
    Q1 shapes of every coarse cell) of a corner or interior patch."""
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=3)
    patch = grid.build_patch(pair, center, m)
    sys_ = fem.assemble(pair, field, kind, patch=patch)
    shapes = msbasis._cell_shapes_matrix(pair, patch.coarse_elems, kind)
    return sys_.stiffness, (sys_.m_pair @ shapes).tocsr()


def gram_oracle(A, B):
    B = B.toarray()
    return B.T @ np.linalg.solve(A.toarray(), B)


def assert_gram(A, B):
    S = fem.SpdFactor(A).gram(B)
    oracle = gram_oracle(A, B)
    assert S.shape == oracle.shape
    assert np.abs(S - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
@pytest.mark.parametrize("center", [0, 12], ids=["corner", "centre"])
@pytest.mark.parametrize("order", ["natural", "reversed", "random"])
def test_spd_factor_gram_dense_oracle(kind, center, order):
    A, B = patch_lod_block(kind, center)
    # the patch does not fill whole row blocks: the last block is short
    assert A.shape[0] % (fem.SpdFactor(A)._band.shape[0]) != 0
    perm = {"natural": np.arange(B.shape[1]),
            "reversed": np.arange(B.shape[1])[::-1],
            "random": np.random.default_rng(center).permutation(B.shape[1])}[order]
    assert_gram(A, B[:, perm])


@pytest.mark.parametrize("where", [0, 7, -1], ids=["first", "middle", "last"])
def test_spd_factor_gram_zero_column(where):
    A, B = patch_lod_block(fem.DIFFUSION, 12)
    cols = list(range(B.shape[1]))
    cols.insert(where % (B.shape[1] + 1), B.shape[1])
    Bz = sp.hstack([B, sp.csr_matrix((B.shape[0], 1))]).tocsr()[:, cols]
    S = fem.SpdFactor(A).gram(Bz)
    z = cols.index(B.shape[1])
    assert np.all(S[z] == 0.0) and np.all(S[:, z] == 0.0)
    assert_gram(A, Bz)


def banded_spd(n, bw, seed):
    """Random sparse SPD matrix with exactly bw subdiagonals."""
    rng = np.random.default_rng(seed)
    A = sp.identity(n) * (2.0 * bw + 1.0)
    for d in range(1, bw + 1):
        low = sp.diags(rng.uniform(-1, 1, n - d), -d, shape=(n, n))
        A = A + low + low.T
    return A.tocsr()


@pytest.mark.parametrize("n, bw", [(12, 2), (13, 2), (6, 5), (5, 0), (1, 0)],
                         ids=["whole-blocks", "short-last-block", "single-block",
                              "diagonal", "one-dof"])
def test_spd_factor_gram_block_layouts(n, bw):
    """Blocks are bw + 1 rows: 12 rows fill 4 blocks, 13 leave a short last
    one, and ndof <= bw + 1 is a single block."""
    A = banded_spd(n, bw, seed=n)
    assert fem.SpdFactor(A)._band.shape[0] == bw + 1
    B = sp.random(n, 4, density=0.5, random_state=n, format="csr") + \
        sp.csr_matrix(np.eye(n, 4))
    assert_gram(A, B)


def test_spd_factor_gram_accepts_duplicate_entries():
    """Every entry stored twice, as two halves."""
    A, B = patch_lod_block(fem.DIFFUSION, 0)
    twice = sp.csr_matrix((np.repeat(B.data / 2, 2), np.repeat(B.indices, 2),
                           2 * B.indptr), shape=B.shape)
    assert not twice.has_canonical_format
    S = fem.SpdFactor(A).gram(twice)
    np.testing.assert_allclose(S, gram_oracle(A, B), atol=1e-10 * np.abs(S).max())


def test_rhs_integrates_exactly_for_bilinear_f():
    """2x2 Gauss is exact for bilinear integrands, so f=1 gives row sums of M."""
    pair = grid.NestedPair(2, 6)
    b = fem.assemble_rhs(pair, fem.DIFFUSION, lambda x, y: np.ones_like(x))
    sys_ = fem.assemble(pair, unit_field(pair), fem.DIFFUSION)
    lump = np.asarray(sys_.m_pair.sum(axis=1)).ravel()
    np.testing.assert_allclose(b[sys_.dofs], lump, atol=1e-14)


def manufactured_error(n):
    """True H1-seminorm error against u = sin(pi x) sin(pi y), f = 2 pi^2 u,
    computed by elementwise 2x2 Gauss quadrature of the gradient mismatch."""
    pair = grid.NestedPair(2, n)
    field = unit_field(pair)
    f = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    u_pad, sys_, _ = fem.reference_solve(pair, field, fem.DIFFUSION, f)
    mesh = pair.fine
    h = mesh.h
    conn = mesh.elem_nodes
    ue = u_pad[conn]                                     # (ne, 4)
    x0 = mesh.coords[conn[:, 0]]
    err2 = 0.0
    for xi in fem._GAUSS:
        for eta in fem._GAUSS:
            dxi, deta = fem._shape_grads(xi, eta)
            gx = ue @ dxi / h
            gy = ue @ deta / h
            xs = x0[:, 0] + xi * h
            ys = x0[:, 1] + eta * h
            ex = np.pi * np.cos(np.pi * xs) * np.sin(np.pi * ys)
            ey = np.pi * np.sin(np.pi * xs) * np.cos(np.pi * ys)
            err2 += 0.25 * h * h * np.sum((gx - ex) ** 2 + (gy - ey) ** 2)
    return np.sqrt(err2)


def test_manufactured_solution_first_order_in_energy():
    errs = [manufactured_error(n) for n in (8, 16, 32)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 1.8 <= r1 <= 2.2
    assert 1.8 <= r2 <= 2.2


def test_elasticity_reference_solve_runs():
    pair = grid.NestedPair(2, 8)
    field = unit_field(pair)
    f = lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y), np.ones_like(x))
    u_pad, sys_, b = fem.reference_solve(pair, field, fem.ELASTICITY, f)
    assert u_pad.size == 2 * pair.fine.n_nodes
    res = sys_.stiffness @ u_pad[sys_.dofs] - b
    assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(b)


def test_global_stiffness_spectrum_positive():
    pair = grid.NestedPair(2, 8)
    sys_ = fem.assemble(pair, unit_field(pair), fem.ELASTICITY)
    w = spla.eigsh(sys_.stiffness, k=1, which="SA",
                   return_eigenvectors=False)
    assert w[0] > 0                                              # Dirichlet kills rigid modes
