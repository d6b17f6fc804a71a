"""mslab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload desk --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  Each round of the study runs in its own
single-threaded process (bench/study.py); rounds repeat until --seconds have
passed, and at least one runs.  With --trace 0 the last line of standard
output is a JSON object with every end-to-end metric; with --trace 1 the
same rounds run untraced and then traced, and it holds every per-layer
metric.  Raw per-round records, inputs, outputs and span files go to
bench/out/<workload>-seed<n>[-trace]/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "e_energy_gm": "1", "e_energy_max": "1"}


def single_threaded_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def spawn_round(spec, env):
    """Run one study process and return its record."""
    spec = dict(spec, spawned=time.time())
    proc = subprocess.run([sys.executable, str(HERE / "study.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"study process exited with {proc.returncode}")
    return json.loads(lines[-1])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_benchmark(workload, seed, seconds, trace, shapes=None, out_root=None):
    """Run the rounds of one invocation; returns (result, raw records)."""
    from workloads import WORKLOADS, write_inputs

    shape = (shapes or WORKLOADS)[workload]
    run_dir = (out_root or HERE / "out") / f"{workload}-seed{seed}{'-trace' if trace else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # the inputs come from the mslab generators of this checkout
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    config = write_inputs(shape, seed, run_dir)
    env = single_threaded_env()
    spec = {"root": str(ROOT), "shape": shape, "config": str(config),
            "coeff": str(run_dir / "coeff.txt"), "out": str(run_dir),
            "mode": "study", "trace": False}

    studies = []
    start = time.perf_counter()
    while not studies or time.perf_counter() - start < seconds:
        studies.append(spawn_round(spec, env))
    traced = []
    for k in range(len(studies) if trace else 0):
        traced.append(spawn_round(dict(spec, trace=True,
                                       trace_file=str(run_dir / f"spans-{k}.json")), env))
    setups = [s["setup_s"] for s in studies]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn_round(dict(spec, mode="setup"), env)["setup_s"])

    rounds = studies + traced
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.spans"] = statistics.median(r["spans"] for r in traced)
        layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in studies))
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        ok = [r for r in studies if not r["failed"]]
        if not ok:
            raise RuntimeError("every round of the study failed")
        errors = {label: statistics.median(r["errors"][label] for r in ok)
                  for label in ok[0]["errors"]}
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in studies),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in studies),
            "e_energy_gm": geomean(errors.values()),
            "e_energy_max": max(errors.values()),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result["metrics"] = metrics
    raw = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "setups": setups, "rounds": rounds, "result": result}
    with open(run_dir / "result.json", "w") as f:
        json.dump(raw, f, indent=1)
    return result, raw


def per_layer_units():
    from spans import metric_units

    units = metric_units()
    units.update({"trace.spans": "count", "trace.overhead_s": "s"})
    return units


def summary_lines(raw):
    """Human-readable lines printed before the JSON result."""
    lines = []
    for k, r in enumerate(raw["rounds"]):
        errs = " ".join(f"{lab}={e:.4e}" for lab, e in r["errors"].items())
        kind = "traced" if "layers" in r else "round"
        lines.append(f"{kind} {k}: run_s={r['run_s']:.3f} setup_s={r['setup_s']:.3f} "
                     f"rss_mb={r['peak_rss_mb']:.1f} checks={len(r['checks'])} "
                     f"failed_checks={len(r['check_failures'])} e_energy {errs}")
        lines.extend(f"  check failed: {c}" for c in r["check_failures"])
        lines.extend(f"  layer absent: {a}" for a in r.get("absent", []))
    return lines


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mslab" / "__init__.py").is_file():
        print(f"no mslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, raw = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in summary_lines(raw):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
