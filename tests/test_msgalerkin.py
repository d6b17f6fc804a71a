"""Coarse Galerkin solve tests: dense triple-product oracle for the tiled band
assembly, the load and the prolongation, orthogonality, reporting."""

import tracemalloc

import numpy as np
import pytest

from mslab import cli, coeff, fem, grid, msbasis, msgalerkin
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


def _coarse(system, basis):
    """The coarse matrix in the basis order, its lower triangle taken from
    the upper one the assembly fills, and its 1-norm."""
    A, norm, cols = msgalerkin._coarse_matrix(system, basis)
    assert np.array_equal(np.sort(cols), np.arange(basis.total_dofs))
    out = np.empty_like(A)
    out[np.ix_(cols, cols)] = np.triu(A) + np.triu(A, 1).T
    return out, norm


def test_coarse_matrix_is_triple_product(setup):
    _, _, system, b, basis = setup
    Phi = _dense_phi(system, basis)
    oracle = Phi.T @ system.stiffness.toarray() @ Phi
    A_ms, norm = _coarse(system, basis)
    np.testing.assert_allclose(A_ms, oracle, atol=1e-10 * np.abs(oracle).max())
    np.testing.assert_allclose(norm, np.abs(A_ms).sum(axis=0).max(), rtol=1e-14)
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
    A_ms, _ = _coarse(system, basis)
    assert np.abs(A_ms - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("label", ["lod", "lssi-2", "lksi-3"])
def test_band_assembly_dense_oracle(banded, label):
    system, _, bases = banded
    _assert_dense_oracle(system, bases[label])


def _cut(basis):
    """Patches keep 1, 2 or 3 of their columns, as after a Krylov breakdown."""
    return msbasis.MsBasis(basis.kind, [
        msbasis.PatchBasis(pb.patch, pb.vectors[:, :1 + i % 3])
        for i, pb in enumerate(basis.patch_bases)])


def _reversed(basis):
    return msbasis.MsBasis(basis.kind, basis.patch_bases[::-1])


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
    # a patch of two or more columns sums its rows in their order, bit for bit
    k = 0
    for pb, box in msgalerkin._box_views(basis, b):
        if pb.count > 1:
            want = np.zeros(pb.count)
            for v, x in zip(pb.vectors, box.reshape(-1)):
                want += v * x
            assert np.array_equal(cs.b_ms[k:k + pb.count], want)
        k += pb.count
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


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("label", ["lod", "lksi-3"])
def test_tiled_assembly_any_tile_width(banded, monkeypatch, label, width):
    """Five coarse columns in x-tiles of 1 to 6 centre columns: widths that
    do not divide 5, patches spanning several tiles, and one tile."""
    system, _, bases = banded
    monkeypatch.setattr(msgalerkin, "_tile_width", lambda m: width)
    _assert_dense_oracle(system, bases[label])


def _cut_to_zero(basis):
    """Patches keep 0, 1, 2 or 3 of their columns."""
    return msbasis.MsBasis(basis.kind, [
        msbasis.PatchBasis(pb.patch, pb.vectors[:, :i % 4])
        for i, pb in enumerate(basis.patch_bases)])


def test_band_assembly_zero_column_counts(banded):
    """Patches without columns take no coarse DoF; the rest still give the
    triple product, and the solution is prolonged in the basis order."""
    system, b, bases = banded
    basis = _cut_to_zero(bases["lksi-3"])
    _assert_dense_oracle(system, basis)
    Phi = _dense_phi(system, basis)
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u, c = msgalerkin.solve_ms(cs)
    np.testing.assert_allclose(u, Phi @ c, rtol=0,
                               atol=1e-14 * (np.abs(Phi) @ np.abs(c)).max())


def test_coarse_order_is_tile_major(banded):
    """Patches with columns sorted by (x-tile, centre row, centre column)."""
    system, _, bases = banded
    basis = _cut_to_zero(_reversed(bases["lod"]))
    order, tile = msgalerkin._coarse_order(basis)
    N = basis.patch_bases[0].patch.pair.coarse.n
    width = msgalerkin._tile_width(basis.patch_bases[0].patch.m)
    keys = [(pb.patch.center % N // width, pb.patch.center // N, pb.patch.center % N)
            for pb in (basis.patch_bases[k] for k in order)]
    assert keys == sorted(keys) and [t for t, _, _ in keys] == list(tile)
    assert sorted(order) == [k for k, pb in enumerate(basis.patch_bases) if pb.count]


def test_coarse_solve_reads_upper_triangle_only(banded, monkeypatch):
    """The factor, the condition estimate and the solution come from the
    upper triangle of A_ms alone: with NaN below the diagonal they are the
    same bit for bit, so what is solved is exactly symmetric."""
    system, b, bases = banded
    basis = _reversed(bases["lksi-3"])
    plain = msgalerkin.assemble_coarse(system, b, basis)
    galerkin = msgalerkin._galerkin_matrix

    def lower_nan(*args):
        A = galerkin(*args)
        A[np.tril_indices_from(A, -1)] = np.nan
        return A

    monkeypatch.setattr(msgalerkin, "_galerkin_matrix", lower_nan)
    poisoned = msgalerkin.assemble_coarse(system, b, basis)
    assert poisoned.cond_estimate == plain.cond_estimate
    L0, L1 = plain._factor[0], poisoned._factor[0]
    assert np.array_equal(np.tril(L0), np.tril(L1))
    for x, y in zip(msgalerkin.solve_ms(plain), msgalerkin.solve_ms(poisoned)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", [1, 3])
def test_nearly_singular_coarse_matrix_keeps_smallest_eigenvalue(seed):
    """At contrast 1e7 lksi-4's coarse matrix has condition up to 5e10.  Its
    smallest eigenvalue, as assembled, matches that of the symmetric part of
    the dense Phi^T (A Phi): every entry sums A applied to either of its
    columns.  Taking each entry from one orientation alone, the upper
    triangle's, put it off by up to 11 % on these fields."""
    pair = grid.NestedPair(5, 50)
    field = coeff.gen_inclusions(pair, 0.12, 1e7, seed=seed, streak_len=(2, 6))
    system = fem.assemble(pair, field, fem.DIFFUSION)
    [(_, basis, _, _)] = msbasis.build_bases(pair, system, 2, [("lksi", 4)])
    Phi = _dense_phi(system, basis)
    G = Phi.T @ (system.stiffness @ Phi)
    oracle = np.linalg.eigvalsh(0.5 * (G + G.T))[0]
    got = np.linalg.eigvalsh(_coarse(system, basis)[0])[0]
    assert abs(got - oracle) <= 1e-4 * oracle


def test_coarse_phase_never_forms_phi():
    """Coarse assembly plus solve allocate less than a sparse Phi would
    hold, on a grid where that Phi outweighs twice the coarse matrix: with
    two columns per patch (lksi-2) and with four (lssi-1), where A_ms alone
    takes 45 % of it."""
    pair = grid.NestedPair(10, 50)
    field = coeff.gen_inclusions(pair, 0.15, 1e3, seed=5)
    system = fem.assemble(pair, field, fem.DIFFUSION)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    b = fem.assemble_rhs(pair, fem.DIFFUSION, f)[system.dofs]
    for _, basis, _, _ in msbasis.build_bases(pair, system, 2, [("lksi", 2), ("lssi", 1)]):
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
    """The rank-1 twin [col, col] of every basis column raises, whether its
    second pivot comes out negative, zero or a rounding-sized positive; the
    factorization overwrites the coarse matrix, yet the message names the
    smallest eigenvalue of the matrix itself."""
    _, _, system, b, basis = setup
    for pb in basis.patch_bases:
        for col in pb.vectors.T:
            twin = msbasis.MsBasis(basis.kind, [
                msbasis.PatchBasis(pb.patch, np.column_stack([col, col]))])
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
    A_ms, _ = _coarse(system, basis)
    np.testing.assert_allclose(A_ms @ c, cs.b_ms, atol=1e-8 * np.abs(cs.b_ms).max())


def test_result_row_csv():
    row = msgalerkin.ResultRow(
        method="lssi-2", n=2, m=4, H=0.25, h=0.0625, contrast=1e3, channel_len=0,
        e_energy=1.2e-2, e_L2=3.4e-4, DoF=64, wall_time_s=1.5, NoLP=128)
    line = row.to_csv()
    parts = line.split(",")
    assert row.header() == ("method,n,m,H,h,contrast,channel_len,e_energy,e_L2,DoF,"
                            "wall_time_s,NoLP")
    assert len(parts) == len(row.header().split(","))
    assert parts[0] == "lssi-2"
    assert parts[10] == "1.500"
    # timing blanked when requested
    assert row.to_csv(with_timing=False).split(",")[10] == ""


def test_report_errors_match_direct(setup):
    """run_methods' rows carry fem.relative_errors of the solutions it returns."""
    pair, field, _, _, _ = setup
    rows, ctx = cli.run_methods(pair, field, fem.DIFFUSION, 1, [("lod", 1), ("lssi", 1)])
    system = ctx["system"]
    u = system.restrict(ctx["u_ref_pad"])
    for row in rows:
        u_ms = system.restrict(ctx["solutions"][row.method])
        ea, el = fem.relative_errors(u, u_ms, system.stiffness, system.mass)
        assert (row.e_energy, row.e_L2) == (ea, el)


def test_cond_estimate_positive(setup):
    _, _, system, b, basis = setup
    cs = msgalerkin.assemble_coarse(system, b, basis)
    assert cs.cond_estimate >= 1.0
    exact = np.linalg.cond(_coarse(system, basis)[0], 1)
    assert exact / 10 <= cs.cond_estimate <= exact * (1 + 1e-8)
