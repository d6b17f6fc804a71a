"""Basis construction tests: seeds, supports, spans and accounting."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from mslab import coeff, fem, grid, localsolve, msbasis, specdiag
from mslab.errors import DependentConstraints


@pytest.fixture(scope="module")
def small_setup():
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=2)
    return pair, field


def test_bilinear_seeds_partition_cell(small_setup):
    pair, _ = small_setup
    dofs, V = msbasis.element_shape_functions(pair, 5)
    assert V.shape[1] == 4
    np.testing.assert_allclose(V.sum(axis=1), 1.0, atol=1e-14)   # shapes sum to 1
    # corner values are Kronecker
    corners = [0.0, 1.0]
    coords = pair.fine.coords[dofs]
    assert np.all((coords >= 0.25 - 1e-12) & (coords <= 0.5 + 1e-12))


def test_bilinear_seeds_elasticity(small_setup):
    pair, _ = small_setup
    dofs, V = msbasis.element_shape_functions(pair, 5, fem.ELASTICITY)
    assert V.shape[1] == 8
    # components do not mix
    assert np.all(V[0::2, 1::2] == 0.0)
    assert np.all(V[1::2, 0::2] == 0.0)


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_cell_shapes_matrix_matches_per_element(small_setup, kind):
    """The LOD constraint shapes equal element_shape_functions cell by cell."""
    pair, _ = small_setup
    elems = [5, 0, 15, 6]
    W = msbasis._cell_shapes_matrix(pair, elems, kind).toarray()
    w = 4 * fem.nblock(kind)
    for t, T in enumerate(elems):
        dofs, V = msbasis.element_shape_functions(pair, T, kind)
        want = np.zeros((W.shape[0], w))
        want[dofs] = V
        np.testing.assert_array_equal(W[:, t * w:(t + 1) * w], want)


def test_constant_seed_interior_only(small_setup):
    pair, _ = small_setup
    dofs, V = msbasis.seed_constant(pair, 5)
    assert V.shape[1] == 1
    coords = pair.fine.coords[dofs]
    assert np.all((coords > 0.25) & (coords < 0.5))


def _restrict_rowwise(entry, sys, kind):
    """Row-by-row reference for restrict_entry."""
    dofs, V = entry
    pos = {int(d): k for k, d in enumerate(sys.patch.interior_dofs(fem.nblock(kind)))}
    out = np.zeros((sys.ndof, V.shape[1]))
    for row, d in enumerate(dofs):
        if int(d) in pos:
            out[pos[int(d)]] = V[row]
    return out


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_restrict_entry_matches_rowwise(small_setup, kind):
    """On a patch clipped at the corner: the centre cell (boundary nodes
    dropped), a neighbour cut by the patch edge, and a cell outside."""
    pair, field = small_setup
    sys = localsolve.PatchSystem.build(pair, field, kind, grid.build_patch(pair, 0, 1))
    for entry in [msbasis.element_shape_functions(pair, 0, kind),
                  msbasis.seed_constant(pair, 0, kind),
                  msbasis.element_shape_functions(pair, 5, kind),
                  msbasis.element_shape_functions(pair, 15, kind)]:
        got = msbasis.restrict_entry(entry, sys, kind)
        assert np.array_equal(got, _restrict_rowwise(entry, sys, kind))
    assert np.any(msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, 5, kind), sys, kind))


def test_seed_gram_rank(small_setup):
    """The 4 bilinear seeds restricted to a patch are independent in L2."""
    pair, field = small_setup
    patch = grid.build_patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, patch)
    S = msbasis.restrict_entry(msbasis.element_shape_functions(pair, 5), sys, fem.DIFFUSION)
    G = S.T @ (sys.M @ S)
    assert np.linalg.matrix_rank(G, tol=1e-12) == 4


def test_m_orthonormalize_properties(small_setup):
    pair, field = small_setup
    patch = grid.build_patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, patch)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((sys.ndof, 3))
    V = np.column_stack([V, V[:, 0] + V[:, 1]])                 # dependent column
    Q, kept = msbasis.m_orthonormalize(sys.M, V)
    assert kept == [0, 1, 2]
    np.testing.assert_allclose(Q.T @ (sys.M @ Q), np.eye(3), atol=1e-10)
    # span preserved
    rep = specdiag.principal_angles(Q, V[:, :3], inner=sys.M)
    assert rep.max_angle < 1e-10


def build_one(pair, field, method, n, m=1, patches=None):
    """(basis, stats) of a single method from build_bases."""
    [(_, basis, stats, _)] = msbasis.build_bases(pair, field, fem.DIFFUSION, m,
                                                 [(method, n)], patches=patches)
    return basis, stats


def test_lssi_accounting_and_support(small_setup):
    pair, field = small_setup
    basis, stats = build_one(pair, field, "lssi", 2)
    N_c = pair.coarse.n_elems
    assert basis.total_dofs == 4 * N_c
    assert stats.n_local_problems == 2 * 4 * N_c
    # supports: padded vectors vanish outside their patch interiors
    U = basis.padded_vectors(pair.fine.n_nodes)
    col = 0
    for pb in basis.patch_bases:
        outside = np.setdiff1d(np.arange(pair.fine.n_nodes), pb.patch.interior_nodes)
        assert np.all(U[outside, col:col + pb.count] == 0.0)
        col += pb.count


def test_lksi_accounting(small_setup):
    pair, field = small_setup
    basis, stats = build_one(pair, field, "lksi", 3)
    N_c = pair.coarse.n_elems
    assert basis.total_dofs == 3 * N_c
    assert stats.n_local_problems == 3 * N_c


def test_lod_accounting(small_setup):
    pair, field = small_setup
    basis, stats = build_one(pair, field, "lod", 1)
    N_c = pair.coarse.n_elems
    assert basis.total_dofs == 4 * N_c
    assert stats.n_local_problems == 4 * N_c


def test_lod_reproduces_constraint_values_of_center_shapes(small_setup):
    """The baseline basis keeps the same mass-functional values as the center
    element's Q1 shapes against every coarse shape in the patch, which is what
    makes it decay away from the center element."""
    pair, field = small_setup
    basis, _ = build_one(pair, field, "lod", 1)
    pb = basis.patch_bases[len(basis.patch_bases) // 2]
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, pb.patch)
    cols = []
    for T in pb.patch.coarse_elems:
        dofs, V = msbasis.element_shape_functions(pair, int(T), fem.DIFFUSION)
        cols.append(sys.system.m_pair[:, dofs] @ V)
    B = np.hstack(cols)
    lam = msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, pb.patch.center), sys, fem.DIFFUSION)
    raw = localsolve.solve_saddle_block(
        sys, localsolve.ConstraintSet(B), rhs=B.T @ lam)
    # same constraint values ...
    np.testing.assert_allclose(B.T @ raw, B.T @ lam, atol=1e-12)
    # ... and the stored (orthonormalized) block spans the same 4 directions
    rep = specdiag.principal_angles(pb.vectors, raw, inner=sys.M)
    assert rep.max_angle < 1e-7


def lod_kernel_by_forward_half(sys, lam):
    """The LOD round through a stored W = L^{-1} B for a dense B, with
    S = W^T W and the solution L^{-T} (W C)."""
    shapes = msbasis._cell_shapes_matrix(sys.patch.pair, sys.patch.coarse_elems,
                                         sys.system.kind)
    B = (sys.system.m_pair @ shapes).toarray()
    W = sys.solve_lower(B)
    C = sla.cho_solve(sla.cho_factor(W.T @ W, lower=True), B.T @ lam)
    return sys.solve_upper(W @ C)


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
@pytest.mark.parametrize("center", [0, 5], ids=["corner", "centre"])
def test_lod_kernel_matches_forward_half_path(small_setup, kind, center):
    pair, field = small_setup
    sys = localsolve.PatchSystem.build(pair, field, kind, grid.build_patch(pair, center, 1))
    lam = msbasis.method_seed(sys, msbasis.LOD)
    Phi = next(msbasis.lod_kernel(sys, lam))
    ref = lod_kernel_by_forward_half(sys, lam)
    assert Phi.shape == ref.shape
    assert np.abs(Phi - ref).max() <= 1e-10 * np.abs(ref).max()


def test_lod_beats_plain_coarse_space_on_smooth_problem(small_setup):
    """Sanity: on the homogeneous problem the corrected basis decays fast, so
    a 1-layer localization must not degrade it into something wild."""
    pair, _ = small_setup
    field = coeff.CoefficientField(np.ones((pair.fine.n, pair.fine.n)))
    basis, _ = build_one(pair, field, "lod", 1, m=2)
    for pb in basis.patch_bases:
        assert pb.vectors.shape[1] == 4
        assert np.all(np.isfinite(pb.vectors))


def test_lksi_span_matches_explicit_krylov(small_setup):
    """The collected iterates span the Krylov space of A^{-1}M applied to the seed."""
    pair, field = small_setup
    n = 3
    basis, _ = build_one(pair, field, "lksi", n)
    for pb in basis.patch_bases:
        sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, pb.patch)
        seed = msbasis.restrict_entry(
            msbasis.seed_constant(pair, pb.patch.center), sys, fem.DIFFUSION)[:, 0]
        explicit = []
        v = seed
        for _ in range(n):
            v = localsolve.apply_local_inverse(sys, v)
            explicit.append(v)
        rep = specdiag.principal_angles(pb.vectors, np.column_stack(explicit),
                                        inner=sys.M)
        assert rep.max_angle < 1e-8


def test_lksi_breakdown_truncates():
    """A seed that is already an eigenvector stagnates after one step."""
    pair = grid.NestedPair(4, 16)
    field = coeff.CoefficientField(np.ones((16, 16)))
    patch = grid.build_patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, patch)
    eig = specdiag.local_eig(sys, 1)
    chain = list(itertools.islice(msbasis.lksi_kernel(sys, eig.vectors[:, 0]), 4))
    assert len(chain) == 1                                      # truncated chain


def test_lssi_one_round_equals_saddle(small_setup):
    """LSSI-1 vectors span the single-round saddle solutions."""
    pair, field = small_setup
    basis, _ = build_one(pair, field, "lssi", 1)
    pb = basis.patch_bases[3]
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, pb.patch)
    S = msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, pb.patch.center), sys, fem.DIFFUSION)
    cons = localsolve.ConstraintSet.from_local_functions(sys, S)
    Phi = localsolve.solve_saddle_block(sys, cons)
    rep = specdiag.principal_angles(pb.vectors, Phi, inner=sys.M)
    assert rep.max_angle < 1e-8


def test_nested_iterates_improve_eigenspace_angle(small_setup):
    """More rounds move the span closer to the leading eigenspace."""
    pair, field = small_setup
    patch = grid.build_patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(pair, field, fem.DIFFUSION, patch)
    eig = specdiag.local_eig(sys, 4)
    angles = []
    for n in (1, 3):
        basis, _ = build_one(pair, field, "lssi", n, patches=[patch])
        rep = specdiag.principal_angles(basis.patch_bases[0].vectors,
                                        eig.vectors, inner=sys.M)
        angles.append(rep.max_angle)
    assert angles[1] < angles[0]


def test_build_bases_matches_individual(small_setup):
    pair, field = small_setup
    out = msbasis.build_bases(pair, field, fem.DIFFUSION, 1,
                              [("lod", 1), ("lssi", 2), ("lksi", 3)])
    labels = [o[0] for o in out]
    assert labels == ["lod", "lssi-2", "lksi-3"]
    ref, _ = build_one(pair, field, "lssi", 2)
    got = out[1][1]
    for pb_r, pb_g in zip(ref.patch_bases, got.patch_bases):
        np.testing.assert_allclose(pb_r.vectors, pb_g.vectors, atol=1e-12)


def test_invalid_iteration_count(small_setup):
    pair, field = small_setup
    with pytest.raises(ValueError):
        build_one(pair, field, "lssi", 0)
    with pytest.raises(ValueError):
        build_one(pair, field, "lksi", 0)
