"""Spectral diagnostics tests: eigenpairs, Ritz values, angles, bounds and rates."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from mslab import coeff, fem, grid, localsolve, msbasis, specdiag


def unit_field(pair):
    return coeff.CoefficientField(np.ones((pair.fine.n, pair.fine.n)))


def whole_domain_system(n=24):
    """Patch spanning the full unit square (homogeneous coefficient)."""
    pair = grid.NestedPair(4, n)
    field = unit_field(pair)
    patch = grid.Patch(pair, 5, 4)
    return pair, localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)


EIGENSOLVERS = pytest.mark.parametrize("eigen", [specdiag.local_eig, specdiag.lanczos_eig],
                                       ids=["dense", "lanczos"])


@EIGENSOLVERS
def test_laplace_leading_eigenvalue(eigen):
    """For -Laplace on the unit square, the pencil's top eigenvalue is
    1/(2 pi^2) up to discretization error."""
    _, sys = whole_domain_system(32)
    eig = eigen(sys, 3)
    exact = 1.0 / (2 * np.pi ** 2)
    assert abs(eig.values[0] - exact) < 2e-4
    # second/third eigenvalues are the degenerate 1/(5 pi^2) pair
    exact2 = 1.0 / (5 * np.pi ** 2)
    assert abs(eig.values[1] - exact2) < 2e-4
    assert abs(eig.values[2] - exact2) < 2e-4


@EIGENSOLVERS
def test_eigvectors_a_orthonormal(eigen):
    _, sys = whole_domain_system(16)
    eig = eigen(sys, 5)
    G = eig.vectors.T @ (sys.A @ eig.vectors)
    np.testing.assert_allclose(G, np.eye(5), atol=1e-9)
    # l2-normalized variant has unit mass norm
    W = eig.l2_normalized()
    d = np.diag(W.T @ (sys.M @ W))
    np.testing.assert_allclose(d, 1.0, atol=1e-9)


@EIGENSOLVERS
def test_pencil_residual(eigen):
    _, sys = whole_domain_system(16)
    eig = eigen(sys, 4)
    for k in range(4):
        r = sys.M @ eig.vectors[:, k] - eig.values[k] * (sys.A @ eig.vectors[:, k])
        assert np.linalg.norm(r) < 1e-9


def test_dense_subset_matches_full_eigh():
    """The leading pairs computed alone match those of the full pencil
    (eig-diag grid H=1/8, h=1/40, m=2, inclusion field)."""
    pair = grid.NestedPair(8, 40)
    field = coeff.gen_inclusions(pair, 0.12, 1e4, seed=1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION),
                                       grid.Patch(pair, 27, 2))
    eig = specdiag.local_eig(sys, 5)
    w, v = sla.eigh(sys.M.toarray(), sys.A.toarray())
    np.testing.assert_allclose(eig.values, w[::-1][:5], rtol=1e-12)
    full = v[:, ::-1][:, :5]
    signs = np.sign(np.sum(full * eig.vectors, axis=0))
    np.testing.assert_allclose(eig.vectors, full * signs, atol=1e-10 * np.abs(full).max())


def test_iterative_matches_dense():
    _, sys = whole_domain_system(16)
    d = specdiag.local_eig(sys, 4)
    it = specdiag.lanczos_eig(sys, 4)
    np.testing.assert_allclose(d.values, it.values, rtol=1e-8)


def eig_diag_grids():
    """(kind, pair, field, m): the eig-diag benchmark grid and a small
    elasticity grid."""
    pair = grid.NestedPair(8, 40)
    yield fem.DIFFUSION, pair, coeff.gen_inclusions(pair, 0.12, 1e4, seed=1), 2
    pair = grid.NestedPair(4, 16)
    yield fem.ELASTICITY, pair, coeff.gen_inclusions(pair, 0.15, 1e3, seed=3), 1


@pytest.mark.parametrize("kind, pair, field, m", eig_diag_grids(),
                         ids=[fem.DIFFUSION, fem.ELASTICITY])
def test_lanczos_matches_dense_on_every_patch(kind, pair, field, m):
    """On every patch system eig-diag builds (nested and reversed ones
    included), lanczos_eig gives the dense eigenvalues, A-orthonormal vectors
    and, up to the choice of basis in a repeated eigenspace, the same leading
    eigenspaces, and the same bits on a second call."""
    count = 4 * fem.nblock(kind) + 1
    system = fem.assemble(pair, field, kind)
    patches = grid.build_all_patches(pair, m)
    systems = [s for nest in msbasis.patch_nests(patches)
               for s in msbasis.nest_systems(system, patches, nest)]
    assert len(systems) == len(patches) and any(s.reverse for s in systems)
    for sys in systems:
        d = specdiag.local_eig(sys, count)
        it = specdiag.lanczos_eig(sys, count)
        np.testing.assert_allclose(it.values, d.values, rtol=1e-10)
        assert np.abs(it.vectors.T @ (sys.A @ it.vectors) - np.eye(count)).max() <= 1e-10
        for j in range(1, count):
            if d.values[j - 1] > (1 + 1e-8) * d.values[j]:
                ang = specdiag.principal_angles(it.vectors[:, :j], d.vectors[:, :j],
                                                inner=sys.M)
                assert ang.max_angle < 1e-8, (sys.patch.center, j, ang.max_angle)
        again = specdiag.lanczos_eig(sys, count)
        assert np.array_equal(again.values, it.values)
        assert np.array_equal(again.vectors, it.vectors)


def test_lanczos_runs_on_the_factor_halves():
    """lanczos_eig makes no solve and no stiffness product: its Lanczos steps
    take the halves of the solve and a mass product alone."""
    _, sys = whole_domain_system(16)
    want = specdiag.local_eig(sys, 4)
    calls = {"solve": 0, "stiffness": 0}
    A, solve = sys.A, sys.solve

    def counted(name, apply):
        def run(x):
            calls[name] += 1
            return apply(x)
        return run

    sys.solve = counted("solve", solve)
    sys.A = spla.LinearOperator(A.shape, matvec=counted("stiffness", A.dot), dtype=float)
    eig = specdiag.lanczos_eig(sys, 4)
    assert calls == {"solve": 0, "stiffness": 0}
    np.testing.assert_allclose(eig.values, want.values, rtol=1e-10)


def test_lanczos_count_range():
    _, sys = whole_domain_system(8)
    for count in (0, sys.ndof):
        with pytest.raises(ValueError):
            specdiag.lanczos_eig(sys, count)


def test_rate_report_flags_repeated_pair_from_lanczos():
    """The unit-coefficient whole-domain patch has lambda_2 = lambda_3; from
    Lanczos pairs the report still calls it clustered and fits no rate."""
    _, sys = whole_domain_system(24)
    rep = specdiag.rate_report(sys, specdiag.lanczos_eig(sys, 5), 6, method="lssi")
    assert rep.clustered
    assert rep.fitted_rate is None


def test_ritz_values_reach_leading_eigenvalue():
    _, sys = whole_domain_system(16)
    top = specdiag.local_eig(sys, 1).values[0]
    ritz = specdiag.ritz_values(sys, 8)
    assert ritz.size == 8 and np.all(np.diff(ritz) < 0)
    assert abs(ritz[0] - top) < 1e-8 * top


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_ritz_values_are_those_of_the_lksi_basis(kind):
    """ritz_values(sys, 8) are the eigenvalues of the pencil projected on the
    lksi-8 basis the builder makes for the same patch, one chain (diffusion)
    or two (elasticity)."""
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=2)
    system = fem.assemble(pair, field, kind)
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(system, patch)
    [(_, basis, _, _)] = msbasis.build_bases(pair, system, 1, [("lksi", 8)],
                                             patches=[patch])
    V = basis.patch_bases[0].vectors
    want = sla.eigh(V.T @ (sys.M @ V), V.T @ (sys.A @ V), eigvals_only=True)[::-1]
    np.testing.assert_allclose(specdiag.ritz_values(sys, 8), want, rtol=1e-10)


def test_principal_angles_identity_and_orthogonal():
    rng = np.random.default_rng(1)
    U = rng.standard_normal((20, 3))
    rep = specdiag.principal_angles(U, U)
    assert rep.max_angle < 1e-10
    # orthogonal complement vectors give pi/2
    Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    rep2 = specdiag.principal_angles(Q[:, :2], Q[:, 2:4])
    np.testing.assert_allclose(rep2.angles, np.pi / 2, atol=1e-10)


def test_principal_angles_known_rotation():
    theta = 0.3
    U = np.array([[1.0, 0.0, 0.0]]).T
    V = np.array([[np.cos(theta), np.sin(theta), 0.0]]).T
    rep = specdiag.principal_angles(U, V)
    assert abs(rep.max_angle - theta) < 1e-12


def test_interp_bound_holds_on_random_instances():
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=9)
    patches = grid.build_all_patches(pair, 1)
    gsys = fem.assemble(pair, field, fem.DIFFUSION)
    systems = [localsolve.PatchSystem.build(gsys, p) for p in patches]
    pou = grid.build_pou(pair, patches)
    eigs = [specdiag.local_eig(s, 5) for s in systems]
    rng = np.random.default_rng(2)
    for k in range(10):
        u = np.zeros(pair.fine.n_nodes)
        u[gsys.dofs] = rng.standard_normal(gsys.ndof)
        lhs, rhs = specdiag.check_interp_bound(systems, pou, eigs, u, gsys)
        assert lhs <= rhs


def one_loop_interp_bound(systems, pou, eigs, u_full, global_system):
    """The interpolation bound as one loop over the patches, the reference
    for its split into interp_terms and interp_bound."""
    nb = fem.nblock(global_system.kind)
    interp, lam_next, rhs_sum = np.zeros_like(u_full), 0.0, 0.0
    for i, (sys, eig) in enumerate(zip(systems, eigs)):
        w = sys.system.restrict(np.repeat(pou.dense(i), nb) * u_full)
        L = eig.count - 1
        lam_next = max(lam_next, eig.values[L])
        phi = eig.l2_normalized()[:, :L]
        interp[sys.patch.interior_dofs(nb)] += phi @ (phi.T @ (sys.M @ w))
        g = (1.0 / np.asarray(sys.M.sum(axis=1)).ravel()) * (sys.A @ w)
        rhs_sum += fem.l2_norm(sys.M, g)
    d = (u_full - interp)[global_system.dofs]
    return fem.energy_norm(global_system.stiffness, d), np.sqrt(lam_next) * rhs_sum


def one_instance_interp_term(sys, chi, eig, u_full):
    """One patch's terms of the bound for one instance, forming the lumped
    mass and the normalized eigenvectors anew: the reference for
    interp_terms, which forms them once for all instances."""
    w = sys.system.restrict(np.repeat(chi, fem.nblock(sys.system.kind)) * u_full)
    phi = eig.l2_normalized()[:, :eig.count - 1]
    g = (1.0 / np.asarray(sys.M.sum(axis=1)).ravel()) * (sys.A @ w)
    return phi @ (phi.T @ (sys.M @ w)), fem.l2_norm(sys.M, g)


@pytest.mark.parametrize("kind", [fem.DIFFUSION, fem.ELASTICITY])
def test_interp_terms_summed_give_check_interp_bound(kind):
    """interp_terms taken nest by nest, as eig-diag's workers take it, for
    several instances at once gives each instance the bits of its own
    one-instance terms, and, summed in patch order by interp_bound,
    check_interp_bound's (lhs, rhs) and the one-loop bound's bit for bit."""
    pair = grid.NestedPair(4, 16)
    gsys = fem.assemble(pair, coeff.gen_inclusions(pair, 0.15, 1e3, seed=5), kind)
    patches = grid.build_all_patches(pair, 1)
    pou = grid.build_pou(pair, patches)
    count = 4 * fem.nblock(kind) + 1
    rng = np.random.default_rng(6)
    us = [np.zeros(pair.fine.n_nodes * fem.nblock(kind)) for _ in range(3)]
    for u in us:
        u[gsys.dofs] = rng.standard_normal(gsys.ndof)
    systems, eigs, terms = [None] * len(patches), [None] * len(patches), {}
    for nest in msbasis.patch_nests(patches):
        for k, sys in zip(nest[0], msbasis.nest_systems(gsys, patches, nest)):
            systems[k], eigs[k] = sys, specdiag.lanczos_eig(sys, count)
            terms[k] = specdiag.interp_terms(sys, pou.dense(k), eigs[k], us)
            for (contrib, norm), u in zip(terms[k], us):
                want = one_instance_interp_term(sys, pou.dense(k), eigs[k], u)
                assert np.array_equal(contrib, want[0]) and norm == want[1]
    lam_next = max(eig.values[-1] for eig in eigs)
    for i, u in enumerate(us):
        split = specdiag.interp_bound(patches, [terms[k][i] for k in range(len(patches))],
                                      lam_next, u, gsys)
        assert split == specdiag.check_interp_bound(systems, pou, eigs, u, gsys)
        assert split == one_loop_interp_bound(systems, pou, eigs, u, gsys)
        assert split[0] <= split[1]


def test_rate_report_lssi_decay():
    """On a well-gapped patch the fitted rate should track the eigengap."""
    pair = grid.NestedPair(4, 24)
    field = unit_field(pair)
    patch = grid.Patch(pair, 5, 1)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    rep = specdiag.rate_report(sys, specdiag.local_eig(sys, 5), 6, method="lssi")
    assert rep.gap < 1.0
    assert np.all(np.diff(rep.angles[1:]) <= 1e-12)           # monotone after round 1
    if rep.fitted_rate is not None:
        assert rep.fitted_rate < 1.0


def test_rate_report_lksi_follows_lksi_basis():
    """Round n of the lksi angle table is the angle between the LKSI-n basis
    and the leading eigenvector, so the table follows the chain LKSI builds."""
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=2)
    patch = grid.Patch(pair, 5, 1)
    system = fem.assemble(pair, field, fem.DIFFUSION)
    sys = localsolve.PatchSystem.build(system, patch)
    eig = specdiag.local_eig(sys, 2)
    rep = specdiag.rate_report(sys, eig, 4, method="lksi")
    built = msbasis.build_bases(pair, system, 1,
                                [("lksi", n) for n in range(1, 5)], patches=[patch])
    for n, (_, basis, _, _) in enumerate(built, 1):
        want = specdiag.principal_angles(basis.patch_bases[0].vectors,
                                         eig.vectors[:, :1], inner=sys.M).max_angle
        assert abs(rep.angles[n - 1] - want) < 1e-8


def per_round_angles(sys, eig, n_max, method):
    """rate_report's angles as one principal_angles call per round, which
    M-orthonormalizes the round's iterates (for LKSI the chain's psi's) and
    the target anew: the reference for rate_report's reuse of the target and
    of the chain's q's."""
    L = eig.count - 1
    lead = eig.vectors[:, :L]
    seed = msbasis.method_seed(sys, method)
    if method == msbasis.LSSI:
        blocks = msbasis.lssi_kernel(sys, seed)
    else:
        chain = msbasis.lksi_kernel(sys, seed[:, 0])
        blocks = map(np.column_stack, itertools.accumulate([psi] for psi, _ in chain))
    angles = []
    for n, block in enumerate(itertools.islice(blocks, n_max), 1):
        target = lead if method == msbasis.LSSI else lead[:, :min(n, L)]
        angles.append(specdiag.principal_angles(block, target, inner=sys.M).max_angle)
    return np.asarray(angles)


@pytest.mark.parametrize("kind, pair, field, m", eig_diag_grids(),
                         ids=[fem.DIFFUSION, fem.ELASTICITY])
def test_rate_report_angles_are_the_per_round_angles(kind, pair, field, m):
    """On every patch system eig-diag builds, rate_report's lssi angles, and
    its lksi angles towards the leading eigenvector and towards the leading
    L, are the bits of the per-round reference."""
    count = 4 * fem.nblock(kind) + 1
    system = fem.assemble(pair, field, kind)
    patches = grid.build_all_patches(pair, m)
    for nest in msbasis.patch_nests(patches):
        for sys in msbasis.nest_systems(system, patches, nest):
            eig = specdiag.lanczos_eig(sys, count)
            lead = specdiag.EigPairs(eig.values[:2], eig.vectors[:, :2])
            for pairs, method in [(eig, msbasis.LSSI), (lead, msbasis.LKSI),
                                  (eig, msbasis.LKSI)]:
                rep = specdiag.rate_report(sys, pairs, 6, method=method)
                assert np.array_equal(rep.angles, per_round_angles(sys, pairs, 6, method)), \
                    (sys.patch.center, method, pairs.count)
