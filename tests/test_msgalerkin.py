"""Coarse Galerkin solve tests: dense triple-product oracle for the band
assembly, orthogonality, reporting."""

import numpy as np
import pytest
import scipy.sparse as sp

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


def test_basis_matrix_dense_oracle(setup):
    pair, _, system, _, basis = setup
    Phi = msgalerkin.basis_matrix(system, basis)
    dense = basis.padded_vectors(system.n_full)[system.dofs]
    np.testing.assert_allclose(Phi.toarray(), dense, atol=1e-14)


def _basis_matrix_loop(system, basis):
    """Oracle: Phi built column by column."""
    free_index = np.full(system.n_full, -1, dtype=np.int64)
    free_index[system.dofs] = np.arange(system.ndof)
    nb = fem.nblock(basis.kind)
    rows, cols, vals = [], [], []
    col0 = 0
    for pb in basis.patch_bases:
        r = free_index[pb.patch.interior_dofs(nb)]
        for k in range(pb.count):
            rows.append(r)
            cols.append(np.full(r.size, col0 + k, dtype=np.int64))
            vals.append(pb.vectors[:, k])
        col0 += pb.count
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(system.ndof, col0))


def test_coarse_matrix_is_triple_product(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    Phi = cs.Phi.toarray()
    oracle = Phi.T @ system.stiffness.toarray() @ Phi
    np.testing.assert_allclose(cs.A_ms, oracle, atol=1e-10 * np.abs(oracle).max())
    np.testing.assert_allclose(cs.b_ms, Phi.T @ b, atol=1e-14)


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


def _assert_dense_oracle(cs, system, Phi):
    oracle = Phi.T @ system.stiffness.toarray() @ Phi
    assert np.abs(cs.A_ms - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3"])
def test_band_assembly_dense_oracle(banded, label):
    system, b, bases = banded
    basis = bases[label]
    cs = msgalerkin.assemble_coarse(system, b, basis)
    _assert_dense_oracle(cs, system, basis.padded_vectors(system.n_full)[system.dofs])


def _cut(basis):
    """Patches keep 1, 2 or 3 of their columns, as after a Krylov breakdown."""
    return msbasis.MsBasis(basis.method, basis.kind, [
        msbasis.PatchBasis(pb.patch, pb.vectors[:, :1 + i % 3])
        for i, pb in enumerate(basis.patch_bases)])


@pytest.mark.parametrize("label", ["lod", "lksi-3", "lksi-3-cut"])
def test_basis_matrix_matches_column_loop(banded, label):
    system, _, bases = banded
    basis = _cut(bases["lksi-3"]) if label == "lksi-3-cut" else bases[label]
    Phi = msgalerkin.basis_matrix(system, basis)
    assert np.array_equal(Phi.toarray(), _basis_matrix_loop(system, basis).toarray())


def test_band_assembly_uneven_column_counts(banded):
    """Patches that keep 1, 2 or 3 of their LKSI iterates, as after a
    Krylov breakdown, still give the triple product."""
    system, b, bases = banded
    cut = _cut(bases["lksi-3"])
    cs = msgalerkin.assemble_coarse(system, b, cut)
    _assert_dense_oracle(cs, system, cut.padded_vectors(system.n_full)[system.dofs])


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3"])
def test_band_assembly_reversed_patch_order(banded, label):
    """Correctness does not rely on the columns being ordered by patch centre."""
    system, b, bases = banded
    basis = bases[label]
    rev = msbasis.MsBasis(basis.method, basis.kind, basis.patch_bases[::-1])
    cs = msgalerkin.assemble_coarse(system, b, rev)
    _assert_dense_oracle(cs, system, rev.padded_vectors(system.n_full)[system.dofs])


def test_galerkin_orthogonality(setup):
    """The residual of the coarse solution is A-orthogonal to the space."""
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    u = fem.SpdFactor(system.stiffness).solve(b)
    resid = cs.Phi.T @ (system.stiffness @ (u - u_ms))
    assert np.abs(resid).max() < 1e-8 * np.abs(cs.b_ms).max()


def test_cea_best_approximation(setup):
    """Galerkin error equals the energy-norm best approximation error."""
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    u = fem.SpdFactor(system.stiffness).solve(b)
    e_gal = fem.energy_norm(system.stiffness, u - u_ms)
    Phi = cs.Phi.toarray()
    G = Phi.T @ system.stiffness.toarray() @ Phi
    rhs = Phi.T @ (system.stiffness @ u)
    u_best = Phi @ np.linalg.solve(G, rhs)
    e_best = fem.energy_norm(system.stiffness, u - u_best)
    assert e_gal <= e_best * (1 + 1e-10)


def test_singular_coarse_detected(setup):
    _, _, system, b, basis = setup
    pb = basis.patch_bases[0]
    col = pb.vectors[:, 0]
    twin = msbasis.MsBasis(basis.method, basis.kind, [
        msbasis.PatchBasis(pb.patch, np.column_stack([col, col]))])   # rank 1
    with pytest.raises(SingularCoarse):
        msgalerkin.assemble_coarse(system, b, twin)


def test_solve_ms_reconstruction(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, c = msgalerkin.solve_ms(cs)
    np.testing.assert_allclose(u_ms, cs.Phi @ c, atol=1e-14)
    np.testing.assert_allclose(cs.A_ms @ c, cs.b_ms, atol=1e-8 * np.abs(cs.b_ms).max())


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
    exact = np.linalg.cond(cs.A_ms, 1)
    assert exact / 10 <= cs.cond_estimate <= exact * (1 + 1e-8)
