"""Basis construction tests: seeds, supports, spans and accounting."""

import itertools
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import force_workers
from mslab import coeff, fem, grid, localsolve, msbasis, msgalerkin, specdiag


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
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, kind),
                                       grid.Patch(pair, 0, 1))
    for entry in [msbasis.element_shape_functions(pair, 0, kind),
                  msbasis.seed_constant(pair, 0, kind),
                  msbasis.element_shape_functions(pair, 5, kind),
                  msbasis.element_shape_functions(pair, 15, kind)]:
        got = msbasis.restrict_entry(entry, sys)
        assert np.array_equal(got, _restrict_rowwise(entry, sys, kind))
    assert np.any(msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, 5, kind), sys))


def test_seed_gram_rank(small_setup):
    """The 4 bilinear seeds restricted to a patch are independent in L2."""
    pair, field = small_setup
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    S = msbasis.restrict_entry(msbasis.element_shape_functions(pair, 5), sys)
    G = S.T @ (sys.M @ S)
    assert np.linalg.matrix_rank(G, tol=1e-12) == 4


def test_m_orthonormalize_properties(small_setup):
    pair, field = small_setup
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((sys.ndof, 3))
    V = np.column_stack([V, V[:, 0] + V[:, 1]])                 # dependent column
    Q, kept = msbasis.m_orthonormalize(sys.M, V)
    assert kept == [0, 1, 2]
    np.testing.assert_allclose(Q.T @ (sys.M @ Q), np.eye(3), atol=1e-10)
    # span preserved
    rep = specdiag.principal_angles(Q, V[:, :3], inner=sys.M)
    assert rep.max_angle < 1e-10


def test_m_orthonormalize_matches_column_loop(small_setup):
    """One block product M V for the starting norms gives Q and kept bit for
    bit as the column-by-column M @ v does, dependent columns included."""
    pair, field = small_setup
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    rng = np.random.default_rng(1)
    V = rng.standard_normal((sys.ndof, 4))
    V = np.column_stack([V[:, :2], V[:, 0] - 2 * V[:, 1], V[:, 2:], np.zeros(sys.ndof)])
    cols, mcols = [], []
    kept = [k for k in range(V.shape[1])
            if msbasis._mgs_append(sys.M, V[:, k], sys.M @ V[:, k], cols, mcols)]
    Q, got = msbasis.m_orthonormalize(sys.M, V)
    assert got == kept == [0, 1, 3, 4]
    assert np.array_equal(Q, np.column_stack(cols))


def test_lksi_kernel_orthonormal_iterates(small_setup):
    """The kernel's own q_k are m_orthonormalize of its iterates bit for bit,
    which lets a single chain skip the second pass."""
    pair, field = small_setup
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    psi = msbasis.method_seed(sys, msbasis.LKSI)[:, 0]
    chain = list(itertools.islice(msbasis.lksi_kernel(sys, psi), 4))
    assert len(chain) == 4
    Q, kept = msbasis.m_orthonormalize(sys.M, np.column_stack([p for p, _ in chain]))
    assert kept == [0, 1, 2, 3]
    assert np.array_equal(Q, np.column_stack([q for _, q in chain]))


def padded_vectors(basis, n_full):
    """Oracle: every basis vector as a dense full fine-grid column."""
    out = np.zeros((n_full, basis.total_dofs))
    col = 0
    for pb in basis.patch_bases:
        out[pb.patch.interior_dofs(fem.nblock(basis.kind)), col:col + pb.count] = pb.vectors
        col += pb.count
    return out


def build_one(pair, field, method, n, m=1, patches=None):
    """(basis, stats) of a single method from build_bases."""
    system = fem.assemble(pair, field, fem.DIFFUSION)
    [(_, basis, stats, _)] = msbasis.build_bases(pair, system, m, [(method, n)],
                                                 patches=patches)
    return basis, stats


def test_lssi_accounting_and_support(small_setup):
    pair, field = small_setup
    basis, stats = build_one(pair, field, "lssi", 2)
    N_c = pair.coarse.n_elems
    assert basis.total_dofs == 4 * N_c
    assert stats.n_local_problems == 2 * 4 * N_c
    # supports: padded vectors vanish outside their patch interiors
    U = padded_vectors(basis, pair.fine.n_nodes)
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
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), pb.patch)
    cols = []
    for T in pb.patch.coarse_elems:
        dofs, V = msbasis.element_shape_functions(pair, int(T), fem.DIFFUSION)
        cols.append(sys.system.m_pair[:, dofs] @ V)
    B = np.hstack(cols)
    lam = msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, pb.patch.center), sys)
    raw = localsolve.solve_saddle_block(
        sys, localsolve.ConstraintSet(B), rhs=B.T @ lam)
    # same constraint values ...
    np.testing.assert_allclose(B.T @ raw, B.T @ lam, atol=1e-12)
    # ... and the stored (orthonormalized) block spans the same 4 directions
    rep = specdiag.principal_angles(pb.vectors, raw, inner=sys.M)
    assert rep.max_angle < 1e-7


def lod_kernel_by_dense_solve(sys, lam):
    """The LOD round through full solves on a dense B, independent of gram:
    X = A^{-1} B, S = B^T X and the solution X C."""
    shapes = msbasis._cell_shapes_matrix(sys.patch.pair, sys.patch.coarse_elems,
                                         sys.system.kind)
    B = (sys.system.m_pair @ shapes).toarray()
    X = sys.solve(B)
    C = sla.cho_solve(sla.cho_factor(B.T @ X, lower=True), B.T @ lam)
    return X @ C


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
@pytest.mark.parametrize("center", [0, 5], ids=["corner", "centre"])
def test_lod_kernel_matches_forward_half_path(small_setup, kind, center):
    pair, field = small_setup
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, kind),
                                       grid.Patch(pair, center, 1))
    lam = msbasis.method_seed(sys, msbasis.LOD)
    [constraints] = msbasis.lod_constraints([sys])
    Phi = next(msbasis.lod_kernel(sys, lam, constraints))
    ref = lod_kernel_by_dense_solve(sys, lam)
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
    system = fem.assemble(pair, field, fem.DIFFUSION)
    for pb in basis.patch_bases:
        sys = localsolve.PatchSystem.build(system, pb.patch)
        seed = msbasis.restrict_entry(
            msbasis.seed_constant(pair, pb.patch.center), sys)[:, 0]
        explicit = []
        v = seed
        for _ in range(n):
            v = sys.solve(sys.M @ v)
            explicit.append(v)
        rep = specdiag.principal_angles(pb.vectors, np.column_stack(explicit),
                                        inner=sys.M)
        assert rep.max_angle < 1e-8


def test_lksi_breakdown_truncates():
    """A seed that is already an eigenvector stagnates after one step."""
    pair = grid.NestedPair(4, 16)
    field = coeff.CoefficientField(np.ones((16, 16)))
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    eig = specdiag.local_eig(sys, 1)
    chain = list(itertools.islice(msbasis.lksi_kernel(sys, eig.vectors[:, 0]), 4))
    assert len(chain) == 1                                      # truncated chain


def test_lssi_one_round_equals_saddle(small_setup):
    """LSSI-1 vectors span the single-round saddle solutions."""
    pair, field = small_setup
    basis, _ = build_one(pair, field, "lssi", 1)
    pb = basis.patch_bases[3]
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), pb.patch)
    S = msbasis.restrict_entry(
        msbasis.element_shape_functions(pair, pb.patch.center), sys)
    cons = localsolve.ConstraintSet(sys.M @ S)
    Phi = localsolve.solve_saddle_block(sys, cons)
    rep = specdiag.principal_angles(pb.vectors, Phi, inner=sys.M)
    assert rep.max_angle < 1e-8


def test_nested_iterates_improve_eigenspace_angle(small_setup):
    """More rounds move the span closer to the leading eigenspace."""
    pair, field = small_setup
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    eig = specdiag.local_eig(sys, 4)
    angles = []
    for n in (1, 3):
        basis, _ = build_one(pair, field, "lssi", n, patches=[patch])
        rep = specdiag.principal_angles(basis.patch_bases[0].vectors,
                                        eig.vectors, inner=sys.M)
        angles.append(rep.max_angle)
    assert angles[1] < angles[0]


def test_build_bases_matches_individual(small_setup):
    """Requests of one method share one kernel run per patch, yet every
    request gives exactly the vectors and local problem counts it gives
    alone, for diffusion and elasticity."""
    pair, field = small_setup
    requests = [("lod", None), ("lssi", 1), ("lssi", 2), ("lssi", 4), ("lksi", 2), ("lksi", 4)]
    for kind in (fem.DIFFUSION, fem.ELASTICITY):
        system = fem.assemble(pair, field, kind)
        out = msbasis.build_bases(pair, system, 1, requests)
        assert [o[0] for o in out] == ["lod", "lssi-1", "lssi-2", "lssi-4", "lksi-2", "lksi-4"]
        for req, (lab, basis, stats, _) in zip(requests, out):
            [(_, alone, stats1, _)] = msbasis.build_bases(pair, system, 1, [req])
            assert stats.n_local_problems == stats1.n_local_problems, (kind, lab)
            for pb, pb1 in zip(basis.patch_bases, alone.patch_bases):
                assert np.array_equal(pb.vectors, pb1.vectors), (kind, lab)


@pytest.mark.parametrize("lod", [True, False], ids=["lod", "no-lod"])
def test_saddle_solves_once_per_round(small_setup, monkeypatch, lod):
    """Per patch, one saddle solve for LOD and one per LSSI round up to the
    deepest requested: the shallower LSSI requests reuse its rounds."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    saddle, calls = msbasis.solve_saddle_block, []

    def counting(sys, constraints, **kwargs):
        calls.append(sys.patch.center)
        return saddle(sys, constraints, **kwargs)

    monkeypatch.setattr(msbasis, "solve_saddle_block", counting)
    requests = [("lssi", 1), ("lssi", 4), ("lssi", 2), ("lksi", 3)]
    force_workers(monkeypatch, 1)     # a forked worker's calls would not reach this list
    msbasis.build_bases(pair, system, 1, [("lod", None)] * lod + requests)
    assert len(calls) == pair.coarse.n_elems * (lod + 4)


def test_shared_rounds_count_toward_every_request(small_setup, monkeypatch):
    """A slowed LSSI round goes into the wall time of every request that
    takes it: lssi-3 carries three rounds per patch, lssi-1 one."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    saddle = msbasis.solve_saddle_block
    pause = 0.02

    def slow(sys, constraints, **kwargs):
        time.sleep(pause)
        return saddle(sys, constraints, **kwargs)

    monkeypatch.setattr(msbasis, "solve_saddle_block", slow)
    out = msbasis.build_bases(pair, system, 1, [("lssi", 1), ("lssi", 3)])
    one_round = pause * pair.coarse.n_elems
    (_, _, _, wall1), (_, _, _, wall3) = out
    assert one_round <= wall1 < 2 * one_round
    assert wall3 >= 3 * one_round


def test_chain_that_stops_early_gives_its_prefix(small_setup, monkeypatch):
    """A Krylov chain that stops after 2 iterates gives lksi-4 exactly the
    vectors of lksi-2; the time of its stopping step goes into lksi-4's wall
    time, not into lksi-1's."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    kernel = msbasis.lksi_kernel
    pause = 0.05

    def short(sys, psi):
        yield from itertools.islice(kernel(sys, psi), 2)
        time.sleep(pause)

    monkeypatch.setattr(msbasis, "lksi_kernel", short)
    out = msbasis.build_bases(pair, system, 1, [("lksi", 1), ("lksi", 2), ("lksi", 4)])
    (_, _, _, wall1), (_, two, stats2, _), (_, four, stats4, wall4) = out
    assert stats4.n_local_problems == stats2.n_local_problems == 2 * pair.coarse.n_elems
    for pb2, pb4 in zip(two.patch_bases, four.patch_bases):
        assert np.array_equal(pb4.vectors, pb2.vectors)
    slept = pause * pair.coarse.n_elems
    assert wall4 >= slept > wall1


def test_invalid_iteration_count(small_setup):
    pair, field = small_setup
    with pytest.raises(ValueError):
        build_one(pair, field, "lssi", 0)
    with pytest.raises(ValueError):
        build_one(pair, field, "lksi", 0)


def test_duplicate_requests_rejected(small_setup):
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    with pytest.raises(ValueError):
        msbasis.build_bases(pair, system, 1, [("lssi", 2), ("lksi", 2), ("lssi", 2)])


@pytest.mark.parametrize("N, m, groups", [(4, 0, 16), (4, 1, 8), (5, 2, 10), (4, 3, 1), (4, 7, 1)])
def test_patch_nests_cover_every_patch_once(N, m, groups):
    """Every patch is in exactly one nest, behind a master whose DOFs hold
    its own as the leading (natural) or trailing (reversed) block; m=0
    leaves every patch alone, m >= N - 1 makes one nest of equal boxes."""
    pair = grid.NestedPair(N, 2 * N)
    patches = grid.build_all_patches(pair, m)
    nests = msbasis.patch_nests(patches)
    assert len(nests) == groups
    assert sorted(k for ks, _ in nests for k in ks) == list(range(N * N))
    for ks, reverse in nests:
        outer = patches[ks[0]].interior_dofs()
        assert not reverse or len(ks) > 1
        for k in ks:
            own = patches[k].interior_dofs()
            n = own.size
            assert np.array_equal(own, outer[-n:] if reverse else outer[:n])
    subset = [patches[k] for k in (5, 0, N * N - 1)]
    assert sorted(k for ks, _ in msbasis.patch_nests(subset) for k in ks) == [0, 1, 2]


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_build_bases_nests_match_single_patches(small_setup, kind):
    """Bases built nest by nest equal bases built one patch at a time."""
    pair, field = small_setup
    system = fem.assemble(pair, field, kind)
    requests = [("lod", None), ("lssi", 2), ("lksi", 3)]
    patches = grid.build_all_patches(pair, 1)
    out = msbasis.build_bases(pair, system, 1, requests)
    for k, p in enumerate(patches):
        alone = msbasis.build_bases(pair, system, 1, requests, patches=[p])
        for (lab, basis, _, _), (lab1, basis1, _, _) in zip(out, alone):
            assert lab == lab1 and basis.patch_bases[k].patch.center == p.center
            got, want = basis.patch_bases[k].vectors, basis1.patch_bases[0].vectors
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (lab, k)


def test_build_bases_factors_once_per_nest(small_setup, monkeypatch):
    """Only nest masters factorize: SpdFactor is constructed once per nest."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    calls = []
    init = fem.SpdFactor.__init__

    def counting(self, A):
        calls.append(A.shape[0])
        init(self, A)

    monkeypatch.setattr(fem.SpdFactor, "__init__", counting)
    force_workers(monkeypatch, 1)
    msbasis.build_bases(pair, system, 1, [("lod", None), ("lssi", 1), ("lksi", 2)])
    assert len(calls) == len(msbasis.patch_nests(grid.build_all_patches(pair, 1))) == 8


def test_nest_schur_pass_counts_for_lod_alone(small_setup, monkeypatch):
    """The LOD Schur pass that serves a nest goes into LOD's wall time only,
    not into the shared time every method carries."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    gram = localsolve.PatchSystem.gram
    pause = 0.1

    def slow(self, B, blocks):
        time.sleep(pause)
        return gram(self, B, blocks)

    monkeypatch.setattr(localsolve.PatchSystem, "gram", slow)
    out = msbasis.build_bases(pair, system, 1, [("lod", None), ("lssi", 1)])
    slept = pause * len(msbasis.patch_nests(grid.build_all_patches(pair, 1)))
    (_, _, _, lod_wall), (_, _, _, lssi_wall) = out
    assert lod_wall >= slept > lssi_wall


@pytest.mark.parametrize("kind, N, m", [(fem.DIFFUSION, 4, 1), (fem.ELASTICITY, 4, 1),
                                        (fem.DIFFUSION, 5, 2)])
def test_workers_build_the_same_bases(kind, N, m, monkeypatch):
    """Two forked workers, one nest per task, give every patch the vectors
    of the in-process build bit for bit, and the same local problem counts."""
    pair = grid.NestedPair(N, 4 * N)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=N)
    system = fem.assemble(pair, field, kind)
    nests = msbasis.patch_nests(grid.build_all_patches(pair, m))
    assert any(len(ks) > 1 for ks, _ in nests)
    requests = [("lod", None), ("lssi", 1), ("lssi", 2), ("lksi", 3)]
    with monkeypatch.context() as mp:
        force_workers(mp, 1)
        serial = msbasis.build_bases(pair, system, m, requests)
    forked, calls = msbasis._forked_map, []

    def counting(*args):
        calls.append(args[-1])                # the worker count
        return forked(*args)

    monkeypatch.setattr(msbasis, "_forked_map", counting)
    force_workers(monkeypatch, 2)
    split = msbasis.build_bases(pair, system, m, requests)
    assert calls == [2]
    for (lab, basis, stats, _), (lab2, basis2, stats2, _) in zip(serial, split):
        assert lab == lab2 and stats.n_local_problems == stats2.n_local_problems
        assert len(basis.patch_bases) == len(basis2.patch_bases) == N * N
        for pb, pb2 in zip(basis.patch_bases, basis2.patch_bases):
            assert pb.patch.center == pb2.patch.center
            assert np.array_equal(pb.vectors, pb2.vectors), (lab, pb.patch.center)


def _buffer(a):
    """The buffer at the bottom of an array's chain of views."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_bases_are_views_of_one_store(small_setup, monkeypatch, kind):
    """Every patch basis of one build is a C-contiguous view with nb rows
    per interior node, into one shared buffer, and no two of them overlap."""
    pair, field = small_setup
    system = fem.assemble(pair, field, kind)
    force_workers(monkeypatch, 2)
    out = msbasis.build_bases(pair, system, 1, [("lod", None), ("lssi", 2), ("lksi", 3)])
    views = [pb.vectors for _, basis, _, _ in out for pb in basis.patch_bases]
    rows = [fem.nblock(kind) * pb.patch.interior_nodes.size
            for _, basis, _, _ in out for pb in basis.patch_bases]
    buf = _buffer(views[0])
    whole = np.frombuffer(buf)
    for V, r in zip(views, rows):
        assert V.shape[0] == r and V.flags.c_contiguous and not V.flags.owndata
        assert _buffer(V) is buf and np.shares_memory(V, whole)
    spans = sorted((V.ctypes.data, V.ctypes.data + V.nbytes) for V in views)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


def test_nest_result_carries_counts_only(small_setup, monkeypatch):
    """A nest's result holds only numbers, no array, and pickles to under
    1 KB per request; the slots hold its patches' vectors of a whole build."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.ELASTICITY)
    patches = grid.build_all_patches(pair, 1)
    plan = [("lod", "lod", 1), ("lssi-2", "lssi", 2), ("lksi-3", "lksi", 3)]
    store = msbasis._basis_store(patches, plan, system.kind)
    nest = max(msbasis.patch_nests(patches), key=lambda nest: len(nest[0]))
    done = msbasis._nest_bases(system, patches, plan, store, nest)
    leaves = [x for counts, solves, secs in done for x in (*counts, solves, secs)]
    assert all(type(x) in (int, float) for x in leaves)
    assert len(pickle.dumps(done)) < 1024 * len(plan)
    assert [counts for counts, _, _ in done] == [[8] * len(nest[0]), [8] * len(nest[0]),
                                                 [6] * len(nest[0])]
    requests = [("lod", None), ("lssi", 2), ("lksi", 3)]
    force_workers(monkeypatch, 1)
    built = msbasis.build_bases(pair, system, 1, requests)
    for j, (_, basis, _, _) in enumerate(built):
        for k in nest[0]:
            V = basis.patch_bases[k].vectors
            assert np.array_equal(store[j][k][:V.size], V.ravel())


def test_chain_that_stops_early_gets_a_view_of_its_width(small_setup, monkeypatch):
    """Krylov chains that stop after 2 iterates on odd patches give those a
    C-contiguous view of 2 columns in their 4-column slot; forked, the coarse
    system and solution equal those of the in-process build and of private
    copies of the vectors bit for bit."""
    pair, field = small_setup
    system = fem.assemble(pair, field, fem.DIFFUSION)
    b = fem.assemble_rhs(pair, fem.DIFFUSION,
                         lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[system.dofs]
    kernel = msbasis.lksi_kernel

    def short(sys, psi):
        return itertools.islice(kernel(sys, psi), 2 if sys.patch.center % 2 else None)

    monkeypatch.setattr(msbasis, "lksi_kernel", short)
    bases = []
    for workers in (2, 1):
        force_workers(monkeypatch, workers)
        bases.append(msbasis.build_bases(pair, system, 1, [("lksi", 4)])[0][1])
    forked = bases[0]
    for pb in forked.patch_bases:
        assert pb.vectors.shape == (pb.patch.interior_nodes.size,
                                    2 if pb.patch.center % 2 else 4)
        assert pb.vectors.flags.c_contiguous
    bases.append(msbasis.MsBasis(forked.kind, [
        msbasis.PatchBasis(pb.patch, pb.vectors.copy()) for pb in forked.patch_bases]))
    solved = []
    for basis in bases:
        cs = msgalerkin.assemble_coarse(system, b, basis)
        solved.append((cs.b_ms, cs._factor[0], *msgalerkin.solve_ms(cs)))
    for got in solved[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(solved[0], got))


@pytest.mark.parametrize("items, forked", [(range(7), True), ([3], False), ([], False)])
def test_forked_map_keeps_item_order(monkeypatch, items, forked):
    """forked_map returns the results in item order, from forked workers
    when there are two items or more, and in this process with a single
    item (the count is capped at the item count)."""
    force_workers(monkeypatch, 2)
    done = msbasis.forked_map(lambda x: (x * x, os.getpid()), items)
    assert [x for x, _ in done] == [x * x for x in items]
    assert all((pid != os.getpid()) == forked for _, pid in done)
    assert multiprocessing.active_children() == []


def test_forked_map_raises_first_failing_item(monkeypatch):
    """With several items failing, forked_map raises the error of the first
    failing item in item order, as map does, even when a later item's
    worker fails first in time, with the worker's traceback as its
    __cause__."""
    force_workers(monkeypatch, 2)

    def failing(k):
        if k == 0:
            time.sleep(0.5)
            raise KeyError("item 0")
        raise ValueError("item 1")

    with pytest.raises(KeyError) as info:
        msbasis.forked_map(failing, [0, 1])
    assert type(info.value) is KeyError and info.value.args == ("item 0",)
    cause = info.value.__cause__
    assert isinstance(cause, multiprocessing.pool.RemoteTraceback)
    assert "in failing" in str(cause) and "KeyError: 'item 0'" in str(cause)
    assert multiprocessing.active_children() == []
    force_workers(monkeypatch, 1)
    with pytest.raises(KeyError, match="item 0"):
        msbasis.forked_map(failing, [0, 1])
