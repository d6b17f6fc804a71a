"""Fast test of the benchmark itself: every workload shape on a tiny grid,
the correctness checks against corrupted results, and the tracer.

    python -m pytest -q bench/test_bench.py
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the workload shapes on grids small enough to run in seconds; h/H = 2 is
# avoided on the channel field, where the coarse matrix turns singular
TINY = {
    "desk": dict(WORKLOADS["desk"], H=4, h=16, m=1),
    "channel": dict(WORKLOADS["channel"], H=8, h=24, m=1,
                    field=dict(WORKLOADS["channel"]["field"], length=4)),
    "eig-diag": dict(WORKLOADS["eig-diag"], H=4, h=12, m=1),
}


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_end_to_end(name, tmp_path):
    result, raw = run.run_benchmark(name, 3, 0.0, False, shapes=TINY, out_root=tmp_path)
    assert result["correct"], raw["rounds"][0]["check_failures"]
    assert result["failed"] == 0
    assert result["attempted"] == workloads.operations(TINY[name]) * len(raw["rounds"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    for m in result["metrics"].values():
        assert m["value"] > 0
    json.dumps(result)


def test_tiny_traced_run_reports_every_layer(tmp_path):
    result, raw = run.run_benchmark("desk", 0, 0.0, True, shapes=TINY, out_root=tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["grid.patches"]["value"] == TINY["desk"]["H"] ** 2
    assert metrics["fem.factor_calls"]["value"] == TINY["desk"]["H"] ** 2 + 1
    assert metrics["localsolve.saddle_s"]["value"] > 0
    assert metrics["specdiag.eig_calls"]["value"] == 0
    assert raw["rounds"][-1]["absent"] == []
    span_file = json.loads((tmp_path / "desk-seed0-trace" / "spans-0.json").read_text())
    assert len(span_file["spans"]) == metrics["trace.spans"]["value"]


def test_symmetric_inputs_give_the_same_errors(tmp_path):
    a, _ = run.run_benchmark("desk", 0, 0.0, False, shapes=TINY, out_root=tmp_path)
    b, _ = run.run_benchmark("desk", 5, 0.0, False, shapes=TINY, out_root=tmp_path)
    ca = np.loadtxt(tmp_path / "desk-seed0" / "coeff.txt", skiprows=1)
    cb = np.loadtxt(tmp_path / "desk-seed5" / "coeff.txt", skiprows=1)
    assert not np.array_equal(ca, cb)
    for key in ("e_energy_gm", "e_energy_max"):
        assert a["metrics"][key]["value"] == pytest.approx(b["metrics"][key]["value"],
                                                           rel=1e-8)


def test_symmetries_are_the_eight_of_the_square():
    v = np.arange(12.0).reshape(3, 4)
    seen = {workloads.symmetry(v, k).tobytes() for k in range(8)}
    assert len(seen) == 8
    assert np.array_equal(workloads.symmetry(v, 8), workloads.symmetry(v, 0))


def test_element_matrices_match_the_q1_closed_forms():
    K, M = checks.q1_element()
    assert np.allclose(K.sum(axis=1), 0.0)
    assert np.allclose(np.diag(K), 4.0 / 6.0)
    assert np.isclose(M.sum(), 1.0)
    assert np.allclose(np.diag(M), 4.0 / 36.0)


def _solve_tiny(tmp_path):
    from mslab import cli

    shape = TINY["desk"]
    config = workloads.write_inputs(shape, 2, tmp_path)
    cfg = cli.RunConfig(str(config))
    pair = cfg.make_pair()
    rows, ctx = cli.run_methods(pair, cfg.make_field(pair), cfg.kind, cfg.m, cfg.methods)
    cli.write_csv(tmp_path / "results.csv", rows)
    values = np.loadtxt(tmp_path / "coeff.txt", skiprows=1)
    return shape, values, checks.read_csv(tmp_path / "results.csv"), ctx


def test_solve_checks_reject_corrupted_results(tmp_path):
    shape, values, records, ctx = _solve_tiny(tmp_path)
    report, errors = checks.check_solve(shape, values, records, ctx["u_ref_pad"],
                                        ctx["solutions"])
    assert report.ok, report.failures()
    assert set(errors) == {r["method"] for r in records}

    scaled = dict(ctx["solutions"], **{"lssi-2": 1.01 * ctx["solutions"]["lssi-2"]})
    report, _ = checks.check_solve(shape, values, records, ctx["u_ref_pad"], scaled)
    assert not report.ok
    assert any("lssi-2 Galerkin identity" in f for f in report.failures())

    edited = [dict(r) for r in records]
    edited[0]["e_energy"] = str(1.001 * float(edited[0]["e_energy"]))
    edited[1]["DoF"] = str(int(edited[1]["DoF"]) + 1)
    report, _ = checks.check_solve(shape, values, edited, ctx["u_ref_pad"],
                                   ctx["solutions"])
    failed = " ".join(report.failures())
    assert "e_energy recomputed" in failed and "DoF and NoLP" in failed

    report, _ = checks.check_solve(shape, values, records, 1.01 * ctx["u_ref_pad"],
                                   ctx["solutions"])
    assert any("reference residual" in f for f in report.failures())


def _rewrite(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields)
        w.writeheader()
        w.writerows(rows)


def test_eig_diag_checks_reject_corrupted_tables(tmp_path):
    from mslab import cli

    shape = TINY["eig-diag"]
    config = workloads.write_inputs(shape, 1, tmp_path)
    cli.cmd_eig_diag(cli.RunConfig(str(config)), tmp_path)
    values = np.loadtxt(tmp_path / "coeff.txt", skiprows=1)
    report, e = checks.check_eig_diag(shape, values, tmp_path)
    assert report.ok, report.failures()
    assert 0 < e < 1

    def lower_lksi_angle(rows):
        lksi = [r for r in rows if r["method"] == "lksi" and r["patch"] == "0"]
        lksi[1]["angle"] = str(0.5 * float(lksi[2]["angle"]))

    _rewrite(tmp_path / "angles.csv", lower_lksi_angle)
    _rewrite(tmp_path / "interp_bound.csv",
             lambda rows: rows[2].update(lhs=str(2 * float(rows[2]["rhs"]))))
    _rewrite(tmp_path / "ritz.csv",
             lambda rows: rows[0].update(ritz_value=str(1e3 * float(rows[0]["ritz_value"]))))
    report, _ = checks.check_eig_diag(shape, values, tmp_path)
    failed = " ".join(report.failures())
    assert "never increase" in failed
    assert "lhs <= rhs" in failed
    assert "Ritz values" in failed


def test_absent_target_is_reported_not_fatal():
    # in a child process, so that the wrapped functions do not leak into
    # the tests that follow
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import spans\n"
        "spans.TARGETS += [('fem', 'no_such_solver', 'fem.solve_s', None, None),\n"
        "                  ('fem', 'NoSuchFactor.solve', 'fem.solve_s', None, None)]\n"
        "t = spans.Tracer(); t.install(); print(json.dumps(t.absent))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == ["fem.no_such_solver", "fem.NoSuchFactor.solve"]


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    st = tracer.self_times()
    assert st["inner"] == pytest.approx(7.0)
    assert st["outer"] == pytest.approx(3.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert math.isclose(spec["run_seconds"], int(spec["run_seconds"]))
