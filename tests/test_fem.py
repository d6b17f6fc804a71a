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
    K = fem.element_stiffness(fem.DIFFUSION, 1.0)
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
        stacked = fem.element_stiffness(kind, lam)
        single = [fem.element_stiffness(kind, a) for a in lam]
    else:
        stacked = fem.element_stiffness(kind, (lam, mu))
        single = [fem.element_stiffness(kind, (a, b)) for a, b in zip(lam, mu)]
    assert np.array_equal(stacked, np.stack(single))


def test_element_mass_integrates_constants():
    h = 0.25
    M = fem.element_mass(h)
    assert abs(M.sum() - h * h) < 1e-15                          # integral of 1
    np.testing.assert_allclose(M, M.T)
    assert np.linalg.eigvalsh(M)[0] > 0


def test_elasticity_element_rigid_body_modes():
    Ke = fem.element_stiffness(fem.ELASTICITY, (1.0, 1.0))
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


def assemble_patch_by_elements(pair, field, kind, patch):
    """Oracle: stiffness, mass and m_pair of a patch assembled element by
    element over the fine elements of the patch box, then restricted to the
    patch interior DOFs."""
    mesh, r, nb = pair.fine, pair.r, fem.nblock(kind)
    ilo, ihi, jlo, jhi = patch.box
    elems = grid.box_indices(ilo * r, (ihi + 1) * r, jlo * r, (jhi + 1) * r, mesh.n)
    edofs = fem._expand_dofs(mesh.elem_nodes[elems].ravel(), nb).reshape(elems.size, 4 * nb)
    if kind == fem.ELASTICITY:
        values = tuple(c.ravel()[elems] for c in field.lame())
    else:
        values = field.per_elem()[elems]
    ke = fem.element_stiffness(kind, values)
    me = np.broadcast_to(fem.element_mass(mesh.h, kind), ke.shape)
    rows = np.repeat(edofs, 4 * nb, axis=1).ravel()
    cols = np.tile(edofs, (1, 4 * nb)).ravel()
    n_full = mesh.n_nodes * nb
    A_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n_full, n_full)).tocsr()
    M_full = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n_full, n_full)).tocsr()
    dofs = patch.interior_dofs(nb)
    A = A_full[dofs][:, dofs].tocsr()
    m_pair = M_full[dofs].tocsr()
    M = m_pair[:, dofs].tocsr()
    A.sum_duplicates()
    M.sum_duplicates()
    return A, M, m_pair


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
@pytest.mark.parametrize("center, m", [(0, 1), (12, 1), (12, 5)],
                         ids=["corner", "centre", "whole"])
def test_on_patch_matches_element_assembly(kind, center, m):
    """The patch system sliced out of the global one is bit for bit the patch
    assembled on its own: every element touching an interior node lies in
    the patch and is summed in the same order."""
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=3)
    patch = grid.Patch(pair, center, m)
    psys = fem.assemble(pair, field, kind).on_patch(patch)
    np.testing.assert_array_equal(psys.dofs, patch.interior_dofs(fem.nblock(kind)))
    assert psys.kind == kind and psys.n_full == pair.fine.n_nodes * fem.nblock(kind)
    for got, want in zip((psys.stiffness, psys.mass, psys.m_pair),
                         assemble_patch_by_elements(pair, field, kind, patch)):
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_on_patch_rejects_dofs_not_free():
    pair = grid.NestedPair(5, 20)
    gsys = fem.assemble(pair, unit_field(pair), fem.DIFFUSION)
    small = gsys.on_patch(grid.Patch(pair, 12, 0))
    with pytest.raises(ValueError):
        small.on_patch(grid.Patch(pair, 12, 1))


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
    return fem.assemble(pair, field, kind).on_patch(grid.Patch(pair, center, m)).stiffness


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


def test_spd_factor_non_canonical_input():
    """Duplicate entries and unsorted column indices give the band of the
    canonical copy, and the input is left as it was."""
    A = patch_stiffness(fem.DIFFUSION, 12).tocoo()
    half = 0.5 * A.data
    rows = np.concatenate([A.row, A.row])
    cols = np.concatenate([A.col, A.col])
    vals = np.concatenate([half, A.data - half])
    order = np.lexsort((np.random.default_rng(4).random(rows.size), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=A.shape[0]))])
    X = sp.csr_matrix((vals[order], cols[order], indptr), shape=A.shape)
    indices = X.indices.copy()
    assert not X.has_canonical_format
    canonical = X.copy()
    canonical.sum_duplicates()
    assert np.array_equal(fem.SpdFactor(X)._band, fem.SpdFactor(canonical)._band)
    assert np.array_equal(X.indices, indices)


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
    patch = grid.Patch(pair, center, m)
    sys_ = fem.assemble(pair, field, kind).on_patch(patch)
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


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_spd_factor_leading_block_equals_fresh_factor(kind):
    """The first n band columns factor A[:n, :n]: solve and gram agree with a
    new factorization of that block, for n in a short first row block,
    mid-block, on a block boundary and the whole matrix."""
    A, B = patch_lod_block(kind, 0, m=2)
    full = fem.SpdFactor(A)
    k = full._band.shape[0]
    rng = np.random.default_rng(11)
    for n in (k // 3, 2 * k + 5, 3 * k, A.shape[0]):
        lead = full.leading(n)
        fresh = fem.SpdFactor(A[:n, :n])
        assert lead._band.shape[1] == n and np.shares_memory(lead._band, full._band)
        b = rng.standard_normal((n, 3))
        assert_close(lead.solve(b), fresh.solve(b))
        Bn = B[:n, :B.shape[1] // 2]
        assert_close(lead.gram(Bn), fresh.gram(Bn))


def test_spd_factor_leading_rejects_bad_size():
    f = fem.SpdFactor(banded_spd(6, 2, seed=0))
    for n in (0, 7):
        with pytest.raises(ValueError):
            f.leading(n)


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_spd_factor_gram_shuffled_columns_permute(kind):
    """Columns in any order give the same Schur block, permuted alike."""
    A, B = patch_lod_block(kind, 12)
    perm = np.random.default_rng(5).permutation(B.shape[1])
    f = fem.SpdFactor(A)
    assert_close(f.gram(B[:, perm]), f.gram(B)[np.ix_(perm, perm)])


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_spd_factor_gram_of_leading_blocks(kind):
    """Each requested (rows, cols) block gets B[:rows, :cols]^T A[:rows, :rows]^{-1}
    B[:rows, :cols], from one pass, in the order asked; the whole block is
    the plain gram."""
    A, B = patch_lod_block(kind, 0, m=2)
    n, p = B.shape
    f = fem.SpdFactor(A)
    k = f._band.shape[0]
    blocks = [(n, p), (k, p // 4), (n // 2, p // 2), (2 * k, 0), (1, 3), (n // 2 + 1, p)]
    grams = f.gram(B, blocks)
    assert len(grams) == len(blocks)
    for (r, c), G in zip(blocks, grams):
        want = gram_oracle(A[:r, :r], B[:r, :c]) if c else np.zeros((0, 0))
        assert G.shape == (c, c)
        if c:
            assert np.abs(G - want).max() <= 1e-10 * np.abs(want).max()
    assert_close(grams[0], f.gram(B))
    for bad in [(0, 1), (n + 1, 1), (n, p + 1)]:
        with pytest.raises(ValueError):
            f.gram(B, [bad])


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
