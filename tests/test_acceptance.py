"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line for its criterion before
asserting, so a full run yields a 10-line scoreboard.  The first four
criteria reproduce study-scale behavior on generated high-contrast fields
and solve fine meshes up to 200x200; expect several minutes.  Criteria 3
and 4 take nearly all of that and carry the `slow` marker, so
`pytest -m "not slow"` is the quick loop; a plain run selects every test.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from mslab import cli, coeff, fem, grid, localsolve, msbasis, specdiag


def verdict(num, desc, ok, detail):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}",
          flush=True)
    assert ok, f"criterion {num}: {desc}: {detail}"


# ---------------------------------------------------------------- criteria 1-2


@pytest.fixture(scope="module")
def desk_run():
    """One shared study at H=1/10, h=1/100 on a contrast-1e4 inclusion field."""
    pair = grid.NestedPair(10, 100)
    field = coeff.gen_inclusions(pair, density=0.12, contrast=1e4, seed=1)
    methods = [("lod", 1), ("lssi", 1), ("lssi", 2), ("lssi", 4), ("lksi", 4)]
    t0 = time.perf_counter()
    rows, _ = cli.run_methods(pair, field, fem.DIFFUSION, 4, methods)
    wall = time.perf_counter() - t0
    return {msbasis.method_label(m): r for m, r in zip(methods, rows)}, wall


def test_criterion_1_accounting(desk_run):
    rows, wall = desk_run
    got = {label: (r.DoF, r.NoLP) for label, r in rows.items()}
    want = {"lod": (400, 400), "lssi-1": (400, 400), "lssi-2": (400, 800),
            "lssi-4": (400, 1600), "lksi-4": (400, 400)}
    ok = got == want and wall < 60.0
    verdict(1, "DoF/NoLP accounting at H=1/10, h=1/100",
            ok, f"{got} (study {wall:.1f}s)")


def test_criterion_2_error_levels(desk_run):
    rows, wall = desk_run
    e = {k: r.e_energy for k, r in rows.items()}
    ratio = max(e["lksi-4"] / e["lssi-4"], e["lssi-4"] / e["lksi-4"])
    ok = (e["lssi-1"] < 5e-2 and e["lssi-2"] <= e["lssi-1"]
          and ratio <= 2.0 and wall < 300.0)
    verdict(2, "inclusion-field error levels (m=4, contrast 1e4)", ok,
            f"lssi-1={e['lssi-1']:.3e} lssi-2={e['lssi-2']:.3e} "
            f"lssi-4={e['lssi-4']:.3e} lksi-4={e['lksi-4']:.3e} "
            f"ratio={ratio:.2f} wall={wall:.0f}s")


# ------------------------------------------------------------------ criterion 3


@pytest.mark.slow
def test_criterion_3_contrast_independence():
    pair = grid.NestedPair(10, 100)
    methods = [("lod", 1), ("lssi", 2), ("lksi", 4)]
    errs = {msbasis.method_label(m): [] for m in methods}
    for kappa in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
        field = coeff.gen_inclusions(pair, density=0.12, contrast=kappa,
                                     seed=3, streak_len=(2, 6))
        rows, _ = cli.run_methods(pair, field, fem.DIFFUSION, 4, methods)
        for m, r in zip(methods, rows):
            errs[msbasis.method_label(m)].append(r.e_energy)
    spread_s = max(errs["lssi-2"]) / min(errs["lssi-2"])
    spread_k = max(errs["lksi-4"]) / min(errs["lksi-4"])
    lod_ratio = errs["lod"][-1] / errs["lod"][0]
    ok = spread_s <= 3.0 and spread_k <= 3.0 and lod_ratio > 5.0
    verdict(3, "contrast sweep 1e2..1e7", ok,
            f"lssi-2 spread={spread_s:.2f} lksi-4 spread={spread_k:.2f} "
            f"lod 1e7/1e2={lod_ratio:.1f}")


# ------------------------------------------------------------------ criterion 4


@pytest.mark.slow
def test_criterion_4_channel_length_stability():
    pair = grid.NestedPair(20, 200)
    methods = [("lod", 1), ("lssi", 2), ("lksi", 4)]
    errs = {}
    for length in (6, 10):
        spec = coeff.ChannelSpec(length_coarse=length, thickness_fine=1,
                                 count=1, seed=16, contrast=1e4)
        field = coeff.gen_channels(pair, spec)
        rows, _ = cli.run_methods(pair, field, fem.DIFFUSION, 5, methods)
        errs[length] = {msbasis.method_label(m): r.e_energy
                        for m, r in zip(methods, rows)}
    g = {k: errs[10][k] / errs[6][k] for k in errs[6]}
    ok = g["lssi-2"] < 3.0 and g["lksi-4"] < 3.0 and g["lod"] > 5.0
    verdict(4, "channel growth 6H -> 10H (H=1/20, h=1/200, m=5)", ok,
            f"growth lssi-2={g['lssi-2']:.2f} lksi-4={g['lksi-4']:.2f} "
            f"lod={g['lod']:.2f} "
            f"(6H: " + " ".join(f"{k}={v:.2e}" for k, v in errs[6].items())
            + "; 10H: " + " ".join(f"{k}={v:.2e}" for k, v in errs[10].items())
            + ")")


# ------------------------------------------------------------------ criterion 5


def test_criterion_5_krylov_span_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(10):
        pair = grid.NestedPair(4, 16)
        field = coeff.gen_inclusions(pair, 0.2, 10.0 ** rng.integers(1, 5),
                                     seed=int(rng.integers(1 << 16)))
        center = int(rng.integers(pair.coarse.n_elems))
        n = int(rng.integers(2, 5))
        patch = grid.Patch(pair, center, int(rng.integers(1, 3)))
        system = fem.assemble(pair, field, fem.DIFFUSION)
        sys = localsolve.PatchSystem.build(system, patch)
        [(_, basis, _, _)] = msbasis.build_bases(pair, system, patch.m,
                                                 [("lksi", n)], patches=[patch])
        seed_vec = msbasis.restrict_entry(
            msbasis.seed_constant(pair, center), sys, fem.DIFFUSION)[:, 0]
        explicit, v = [], seed_vec
        for _ in range(n):
            v = sys.solve(sys.M @ v)
            explicit.append(v)
        rep = specdiag.principal_angles(basis.patch_bases[0].vectors,
                                        np.column_stack(explicit),
                                        inner=sys.M)
        worst = max(worst, rep.max_angle)
    ok = worst < 1e-8
    verdict(5, "lksi span equals explicit Krylov span on 10 patches", ok,
            f"max principal angle {worst:.2e}")


# ------------------------------------------------------------------ criterion 6


def test_criterion_6_saddle_solver_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        pair = grid.NestedPair(3, 12)
        field = coeff.gen_inclusions(pair, 0.2, 10.0 ** rng.integers(0, 4),
                                     seed=int(rng.integers(1 << 16)))
        center = int(rng.integers(pair.coarse.n_elems))
        patch = grid.Patch(pair, center, 1)
        sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
        assert sys.ndof <= 200
        L = int(rng.integers(1, 5))
        B = rng.standard_normal((sys.ndof, L))
        k = int(rng.integers(L))
        phi = localsolve.solve_saddle_block(sys, localsolve.ConstraintSet(B),
                                            rhs=np.eye(L)[:, [k]])[:, 0]
        A = sys.A.toarray()
        KKT = np.block([[A, B], [B.T, np.zeros((L, L))]])
        rhs = np.zeros(sys.ndof + L)
        rhs[sys.ndof + k] = 1.0
        sol = sla.solve(KKT, rhs)
        worst = max(worst, np.abs(sol[:sys.ndof] - phi).max())
    ok = worst < 1e-10
    verdict(6, "saddle solver vs dense KKT on 20 systems", ok,
            f"max deviation {worst:.2e}")


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_angle_decay_tracks_gap():
    pair = grid.NestedPair(8, 48)
    # a high-contrast cross through the patch splits it into four cavities
    # whose fundamental modes form a 4-dim leading eigenspace, separated from
    # the first cavity overtone by roughly the square/overtone factor 2/5
    vals = np.ones((48, 48))
    vals[21, 6:36] = 1e4
    vals[6:36, 21] = 1e4
    field = coeff.CoefficientField(vals)
    center = pair.coarse.n * 3 + 3
    patch = grid.Patch(pair, center, 2)
    sys = localsolve.PatchSystem.build(fem.assemble(pair, field, fem.DIFFUSION), patch)
    eig = specdiag.local_eig(sys, 5)
    gap = eig.values[4] / eig.values[3]
    rep = specdiag.rate_report(sys, eig, 7, method="lssi")
    monotone = bool(np.all(np.diff(rep.angles[2:]) <= 1e-12))
    rate = rep.fitted_rate
    within = rate is not None and gap / 3.0 <= rate <= gap * 3.0
    ok = gap <= 0.5 and monotone and within
    verdict(7, "iteration angle decay tracks the eigengap", ok,
            f"gap={gap:.3e} fitted={rate if rate is None else f'{rate:.3e}'} "
            f"monotone_after_2={monotone}")


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_interp_bound_holds():
    rng = np.random.default_rng(3)
    count, ok = 0, True
    for fs in range(5):
        pair = grid.NestedPair(4, 16)
        field = coeff.gen_inclusions(pair, 0.15, 10.0 ** rng.integers(1, 6),
                                     seed=int(rng.integers(1 << 16)))
        patches = grid.build_all_patches(pair, 1)
        gsys = fem.assemble(pair, field, fem.DIFFUSION)
        systems = [localsolve.PatchSystem.build(gsys, p) for p in patches]
        pou = grid.build_pou(pair, patches)
        eigs = [specdiag.local_eig(s, 5) for s in systems]
        for k in range(10):
            u = np.zeros(pair.fine.n_nodes)
            u[gsys.dofs] = rng.standard_normal(gsys.ndof)
            lhs, rhs = specdiag.check_interp_bound(systems, pou, eigs, u, gsys)
            count += 1
            ok = ok and (lhs <= rhs)
    verdict(8, f"interpolation stability bound on {count} instances", ok,
            "all lhs <= rhs" if ok else "violated")


# ------------------------------------------------------------------ criterion 9


def _manufactured_energy_error(n):
    """True H1-seminorm error of the reference solver against
    u = sin(pi x) sin(pi y) on the unit coefficient field."""
    pair = grid.NestedPair(2, n)
    field = coeff.CoefficientField(np.ones((n, n)))

    def f(x, y):
        return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    u_pad, system, _ = fem.reference_solve(pair, field, fem.DIFFUSION, f)
    U = u_pad.reshape(n + 1, n + 1)
    h = 1.0 / n
    gp = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    err2 = 0.0
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ue = np.stack([U[jj, ii], U[jj, ii + 1], U[jj + 1, ii + 1], U[jj + 1, ii]],
                  axis=-1)
    for gx in gp:
        for gy in gp:
            dxi = np.array([-(1 - gy), (1 - gy), gy, -gy]) / h
            deta = np.array([-(1 - gx), -gx, gx, (1 - gx)]) / h
            gxh = ue @ dxi
            gyh = ue @ deta
            x = (ii + gx) * h
            y = (jj + gy) * h
            exact_x = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            exact_y = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            err2 += 0.25 * h * h * ((gxh - exact_x) ** 2 + (gyh - exact_y) ** 2).sum()
    return np.sqrt(err2)


def test_criterion_9_fem_convergence_rate():
    errs = [_manufactured_energy_error(n) for n in (16, 32, 64)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    verdict(9, "manufactured-solution energy rate", ok,
            "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[problem]\nkind = diffusion\nh = 20\nH = 4\nm = 1\nseed = 5\n"
        "methods = lod, lssi-2, lksi-2\n\n"
        "[coeff]\ngenerator = inclusions\ndensity = 0.15\ncontrast = 1e4\n\n"
        "[sweep]\naxis = contrast\nvalues = 1e2, 1e4\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                       "--no-timing"])
        assert rc == 0
        outs.append((out / "sweep_contrast.csv").read_bytes())
    ok = outs[0] == outs[1]
    verdict(10, "byte-identical sweep CSVs under --no-timing", ok,
            f"{len(outs[0])} bytes compared")
