"""Coarse Galerkin solve tests: dense triple-product oracle for the band
assembly, the load and the prolongation, orthogonality, reporting."""

import tracemalloc

import numpy as np
import pytest

from mslab import coeff, fem, grid, msbasis, msgalerkin
from mslab.errors import SingularCoarse


@pytest.fixture(scope="module")
def setup():
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=5)
    system = fem.assemble(pair, field, fem.DIFFUSION)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    b = fem.assemble_rhs(pair, fem.DIFFUSION, f)[system.dofs]
    [(_, basis, _, _)] = msbasis.build_bases(pair, system, 1, [("lssi", 1)])
    return pair, field, system, b, basis


def _dense_phi(system, basis):
    """Oracle: every basis vector as a dense column on the free DOFs."""
    out = np.zeros((system.n_full, basis.total_dofs))
    col = 0
    for pb in basis.patch_bases:
        out[pb.patch.interior_dofs(fem.nblock(basis.kind)), col:col + pb.count] = pb.vectors
        col += pb.count
    return out[system.dofs]


def test_coarse_matrix_is_triple_product(setup):
    _, _, system, b, basis = setup
    Phi = _dense_phi(system, basis)
    oracle = Phi.T @ system.stiffness.toarray() @ Phi
    A_ms, norm = msgalerkin._coarse_matrix(system, basis)
    np.testing.assert_allclose(A_ms, oracle, atol=1e-10 * np.abs(oracle).max())
    assert np.array_equal(A_ms, A_ms.T)
    assert norm == np.abs(A_ms).sum(axis=0).max()
    cs = msgalerkin.assemble_coarse(system, b, basis)
    np.testing.assert_allclose(cs.b_ms, Phi.T @ b, atol=1e-14)
    assert cs.dof == basis.total_dofs


@pytest.fixture(scope="module", params=[
    pytest.param((kind, m), id=kind + suffix)
    for suffix, m in [("", 1), ("-m0", 0), ("-whole", 5)]
    for kind in (fem.DIFFUSION, fem.ELASTICITY)])
def banded(request):
    """Five coarse row bands, three methods, patches of one layer clipped at
    the boundary, single-cell patches (m=0) or patches spanning the whole
    domain (m >= N), whose columns live on every band."""
    kind, m = request.param
    pair = grid.NestedPair(5, 20)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=4)
    system = fem.assemble(pair, field, kind)
    if kind == fem.DIFFUSION:
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    else:
        f = lambda x, y: (np.sin(np.pi * x), np.cos(np.pi * y))
    b = fem.assemble_rhs(pair, kind, f)[system.dofs]
    built = msbasis.build_bases(pair, system, m,
                                [("lod", None), ("lssi", 2), ("lksi", 3)])
    return system, b, {lab: basis for lab, basis, _, _ in built}


def _assert_dense_oracle(system, basis):
    """The band-assembled coarse matrix against the dense triple product."""
    Phi = _dense_phi(system, basis)
    oracle = Phi.T @ system.stiffness.toarray() @ Phi
    A_ms, _ = msgalerkin._coarse_matrix(system, basis)
    assert np.abs(A_ms - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3"])
def test_band_assembly_dense_oracle(banded, label):
    system, _, bases = banded
    _assert_dense_oracle(system, bases[label])


def _cut(basis):
    """Patches keep 1, 2 or 3 of their columns, as after a Krylov breakdown."""
    return msbasis.MsBasis(basis.method, basis.kind, [
        msbasis.PatchBasis(pb.patch, pb.vectors[:, :1 + i % 3])
        for i, pb in enumerate(basis.patch_bases)])


def _reversed(basis):
    return msbasis.MsBasis(basis.method, basis.kind, basis.patch_bases[::-1])


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3", "lksi-3-cut",
                                   "lod-reversed", "lksi-3-cut-reversed"])
def test_basis_matrix_matches_column_loop(banded, label):
    """The basis matrix Phi is never formed: its action, b_ms = Phi^T b and the
    prolonged solution Phi c, both taken from the patch boxes, against the
    dense Phi in a loop over its columns: the load column by column, the
    solution relative to the sizes of the terms it sums."""
    system, b, bases = banded
    name = label.replace("-cut", "").replace("-reversed", "")
    basis = _cut(bases[name]) if "-cut" in label else bases[name]
    basis = _reversed(basis) if "-reversed" in label else basis
    Phi = _dense_phi(system, basis)
    cs = msgalerkin.assemble_coarse(system, b, basis)
    for k in range(Phi.shape[1]):
        assert abs(cs.b_ms[k] - Phi[:, k] @ b) <= 1e-14 * np.abs(Phi[:, k] * b).sum()
    u, c = msgalerkin.solve_ms(cs)
    np.testing.assert_allclose(u, Phi @ c, rtol=0,
                               atol=1e-14 * (np.abs(Phi) @ np.abs(c)).max())


def test_band_assembly_uneven_column_counts(banded):
    """Patches that keep 1, 2 or 3 of their LKSI iterates, as after a
    Krylov breakdown, still give the triple product."""
    system, _, bases = banded
    _assert_dense_oracle(system, _cut(bases["lksi-3"]))


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3"])
def test_band_assembly_reversed_patch_order(banded, label):
    """Correctness does not rely on the columns being ordered by patch centre."""
    system, _, bases = banded
    _assert_dense_oracle(system, _reversed(bases[label]))


def test_coarse_phase_never_forms_phi():
    """Coarse assembly plus solve allocate less than a sparse Phi would
    hold, on a grid where that Phi outweighs twice the coarse matrix."""
    pair = grid.NestedPair(10, 50)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=5)
    system = fem.assemble(pair, field, fem.DIFFUSION)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    b = fem.assemble_rhs(pair, fem.DIFFUSION, f)[system.dofs]
    [(_, basis, _, _)] = msbasis.build_bases(pair, system, 2, [("lksi", 2)])
    n = basis.total_dofs
    # CSC: a value and a row index per nonzero, a column pointer per column
    phi_bytes = 16 * sum(pb.vectors.size for pb in basis.patch_bases) + 8 * (n + 1)
    assert phi_bytes > 2 * 8 * n * n
    tracemalloc.start()
    try:
        msgalerkin.solve_ms(msgalerkin.assemble_coarse(system, b, basis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < phi_bytes


def test_galerkin_orthogonality(setup):
    """The residual of the coarse solution is A-orthogonal to the space."""
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    u = fem.SpdFactor(system.stiffness).solve(b)
    resid = _dense_phi(system, basis).T @ (system.stiffness @ (u - u_ms))
    assert np.abs(resid).max() < 1e-8 * np.abs(cs.b_ms).max()


def test_cea_best_approximation(setup):
    """Galerkin error equals the energy-norm best approximation error."""
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    u = fem.SpdFactor(system.stiffness).solve(b)
    e_gal = fem.energy_norm(system.stiffness, u - u_ms)
    Phi = _dense_phi(system, basis)
    G = Phi.T @ system.stiffness.toarray() @ Phi
    rhs = Phi.T @ (system.stiffness @ u)
    u_best = Phi @ np.linalg.solve(G, rhs)
    e_best = fem.energy_norm(system.stiffness, u - u_best)
    assert e_gal <= e_best * (1 + 1e-10)


def test_singular_coarse_detected(setup):
    """The factorization overwrites the coarse matrix, yet the message names
    the smallest eigenvalue of the matrix itself."""
    _, _, system, b, basis = setup
    pb = basis.patch_bases[0]
    col = pb.vectors[:, 0]
    twin = msbasis.MsBasis(basis.method, basis.kind, [
        msbasis.PatchBasis(pb.patch, np.column_stack([col, col]))])   # rank 1
    with pytest.raises(SingularCoarse, match="smallest eigenvalue") as exc:
        msgalerkin.assemble_coarse(system, b, twin)
    w = float(str(exc.value).rsplit("~", 1)[1].strip(" )"))
    Phi = _dense_phi(system, twin)
    lam = np.linalg.eigvalsh(Phi.T @ system.stiffness.toarray() @ Phi)
    assert abs(w - lam[0]) <= 1e-12 * lam[-1]


def test_solve_ms_reconstruction(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, c = msgalerkin.solve_ms(cs)
    np.testing.assert_allclose(u_ms, _dense_phi(system, basis) @ c, atol=1e-14)
    A_ms, _ = msgalerkin._coarse_matrix(system, basis)
    np.testing.assert_allclose(A_ms @ c, cs.b_ms, atol=1e-8 * np.abs(cs.b_ms).max())


def test_result_row_csv():
    row = msgalerkin.ResultRow(
        method="lssi-2", n=2, m=4, H=0.25, h=0.0625, contrast=1e3, channel_len=0,
        e_energy=1.2e-2, e_L2=3.4e-4, DoF=64, wall_time_s=1.5, NoLP=128)
    line = row.to_csv()
    parts = line.split(",")
    assert len(parts) == len(msgalerkin.CSV_COLUMNS)
    assert parts[0] == "lssi-2"
    assert parts[10] == "1.500"
    # timing blanked when requested
    assert row.to_csv(with_timing=False).split(",")[10] == ""


def test_report_errors_match_direct(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    u = fem.SpdFactor(system.stiffness).solve(b)
    row = msgalerkin.report(u, u_ms, system.stiffness, system.mass, {
        "method": "lssi-1", "n": 1, "m": 1, "H": 0.25, "h": 0.0625,
        "contrast": 1e3, "DoF": 64, "wall_time_s": 0.0, "NoLP": 64})
    ea, el = fem.relative_errors(u, u_ms, system.stiffness, system.mass)
    assert row.e_energy == ea
    assert row.e_L2 == el


def test_cond_estimate_positive(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    assert cs.cond_estimate >= 1.0
    exact = np.linalg.cond(msgalerkin._coarse_matrix(system, basis)[0], 1)
    assert exact / 10 <= cs.cond_estimate <= exact * (1 + 1e-8)
