"""Spectral diagnostics tests: eigenpairs, Arnoldi, angles, bounds and rates."""

import numpy as np
import scipy.linalg as sla

from mslab import coeff, fem, grid, localsolve, msbasis, specdiag


def unit_field(pair):
    return coeff.CoefficientField(np.ones((pair.fine.n, pair.fine.n)))


def whole_domain_system(n=24):
    """Patch spanning the full unit square (homogeneous coefficient)."""
    pair = grid.NestedPair(4, n)
    field = unit_field(pair)
    patch = grid.Patch(pair, 5, 4)
    return pair, localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)


def test_laplace_leading_eigenvalue():
    """For -Laplace on the unit square, the pencil's top eigenvalue is
    1/(2 pi^2) up to discretization error."""
    _, sys = whole_domain_system(32)
    eig = specdiag.local_eig(sys, 3)
    exact = 1.0 / (2 * np.pi ** 2)
    assert abs(eig.values[0] - exact) < 2e-4
    # second/third eigenvalues are the degenerate 1/(5 pi^2) pair
    exact2 = 1.0 / (5 * np.pi ** 2)
    assert abs(eig.values[1] - exact2) < 2e-4
    assert abs(eig.values[2] - exact2) < 2e-4


def test_eigvectors_a_orthonormal():
    _, sys = whole_domain_system(16)
    eig = specdiag.local_eig(sys, 5)
    G = eig.vectors.T @ (sys.A @ eig.vectors)
    np.testing.assert_allclose(G, np.eye(5), atol=1e-9)
    # l2-normalized variant has unit mass norm
    W = eig.l2_normalized()
    d = np.diag(W.T @ (sys.M @ W))
    np.testing.assert_allclose(d, 1.0, atol=1e-9)


def test_pencil_residual():
    _, sys = whole_domain_system(16)
    eig = specdiag.local_eig(sys, 4)
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
    it = specdiag.local_eig(sys, 4, cap=0)          # Lanczos above the cap
    np.testing.assert_allclose(d.values, it.values, rtol=1e-8)


def test_arnoldi_tridiagonal_in_energy_inner_product():
    """With the stiffness inner product the operator is self-adjoint, so the
    Hessenberg matrix must be tridiagonal."""
    _, sys = whole_domain_system(16)
    x0 = np.ones(sys.ndof)
    res = specdiag.arnoldi(lambda v: sys.solve(sys.M @ v),
                           x0, 6, inner=sys.A)
    H = res.hess[:6, :6]
    off = np.triu(np.abs(H), 2)
    assert off.max() < 1e-8 * np.abs(H).max()
    # basis A-orthonormal
    G = res.basis.T @ (sys.A @ res.basis)
    np.testing.assert_allclose(G, np.eye(res.basis.shape[1]), atol=1e-8)


def test_arnoldi_ritz_approximates_leading_eigenvalue():
    _, sys = whole_domain_system(16)
    eig = specdiag.local_eig(sys, 1)
    x0 = np.ones(sys.ndof)
    res = specdiag.arnoldi(lambda v: sys.solve(sys.M @ v),
                           x0, 10, inner=sys.A)
    assert abs(res.ritz_values[0] - eig.values[0]) < 1e-8 * eig.values[0]


def test_arnoldi_breakdown_on_eigenvector():
    _, sys = whole_domain_system(16)
    eig = specdiag.local_eig(sys, 1)
    res = specdiag.arnoldi(lambda v: sys.solve(sys.M @ v),
                           eig.vectors[:, 0], 5, inner=sys.A)
    assert res.breakdown
    assert res.basis.shape[1] == 1


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
