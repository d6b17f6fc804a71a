"""One round of a workload in a fresh process: set up, run the study, check it.

Started by run.py as `python3 bench/study.py '<spec json>'`; prints one JSON
line.  The spec carries the workload shape, the config and output paths, the
mode ("setup" stops once the config, mesh pair and coefficient field are
ready), whether to trace, and the wall-clock time at which the process was
spawned, so that set-up time counts interpreter start and imports.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer
from workloads import EIG_DIAG, operations


def import_mslab(root):
    """Import mslab from the checkout's src/, and from nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mslab

    if src not in Path(mslab.__file__).resolve().parents:
        raise ImportError(f"mslab imported from {mslab.__file__}, not from {src}")


def run_round(spec):
    root = Path(spec["root"])
    import_mslab(root)
    from mslab import cli
    from mslab.errors import MsLabError

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    with span("bench.setup_s"):
        cfg = cli.RunConfig(spec["config"])
        pair = cfg.make_pair()
        field = cfg.make_field(pair)
    out = {"setup_s": time.time() - spec["spawned"]}
    if spec["mode"] == "setup":
        return out

    shape = spec["shape"]
    run_dir = Path(spec["out"])
    failed = 0
    t0 = time.perf_counter()
    try:
        with span("bench.study_s"):
            if shape["command"] == EIG_DIAG:
                cli.cmd_eig_diag(cfg, run_dir)
            else:
                rows, ctx = cli.run_methods(pair, field, cfg.kind, cfg.m, cfg.methods,
                                            tol=cfg.tol)
                cli.write_csv(run_dir / "results.csv", rows)
    except MsLabError as exc:
        failed = operations(shape)
        print(f"study failed: {exc}", file=sys.stderr)
    out["run_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = operations(shape)
    out["failed"] = failed
    if tracer:
        tracer.recording = False
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        out["absent"] = tracer.absent
        tracer.write(spec["trace_file"])

    values = np.loadtxt(spec["coeff"], skiprows=1, ndmin=2)
    if failed:
        report, errors = checks.Report(), {}
    elif shape["command"] == EIG_DIAG:
        report, e = checks.check_eig_diag(shape, values, run_dir)
        errors = {"eig-interp": e}
    else:
        # the errors as recomputed with all their digits; results.csv keeps 11
        report, errors = checks.check_solve(shape, values,
                                            checks.read_csv(run_dir / "results.csv"),
                                            ctx["u_ref_pad"], ctx["solutions"])
    out["errors"] = errors
    out["correct"] = report.ok
    out["check_failures"] = report.failures()
    out["checks"] = report.items
    return out


def main():
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_round(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
