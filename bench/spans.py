"""Layer spans recorded from outside the program, around its public calls.

Each target names a public function (or a method of a public class) of an
mslab module, the layer metric its self time adds to, and optionally the
counts it adds.  A function is replaced by a timing wrapper in every mslab
module that holds it, so calls through `from .x import f` are timed as well.
A target that no longer exists is reported as absent and skipped.

Spans stay in memory; `write` puts them in one file at the end.  A span's
self time is its duration minus the durations of the spans nested in it.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _ncols(b):
    return 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]


def _patch_counts(args, kwargs, patches):
    return {"grid.patches": len(patches),
            "grid.patch_dofs": sum(p.interior_nodes.size for p in patches)}


def _built_counts(args, kwargs, built):
    return {"msbasis.local_problems": sum(s.n_local_problems for _, _, s, _ in built),
            "msbasis.basis_columns": sum(b.total_dofs for _, b, _, _ in built)}


def _coarse_counts(args, kwargs, cs):
    return {"msgalerkin.basis_nnz": cs.Phi.nnz, "msgalerkin.coarse_dofs": cs.dof}


# (module, qualified name, self-time metric, calls metric, counts(args, kwargs, result))
TARGETS = [
    ("coeff", "load_field", "coeff.field_s", None, None),
    ("coeff", "gen_inclusions", "coeff.field_s", None, None),
    ("coeff", "gen_channels", "coeff.field_s", None, None),
    ("grid", "build_all_patches", "grid.patches_s", None, _patch_counts),
    ("grid", "build_pou", "grid.pou_s", None, None),
    ("fem", "reference_solve", "fem.reference_s", None, None),
    ("fem", "assemble", "fem.assemble_s", "fem.assemble_calls", None),
    ("fem", "SpdFactor.__init__", "fem.factor_s", "fem.factor_calls", None),
    ("fem", "SpdFactor.solve", "fem.solve_s", "fem.solve_calls",
     lambda a, k, r: {"fem.solve_columns": _ncols(a[1])}),
    ("localsolve", "PatchSystem.build", "localsolve.patch_build_s", None, None),
    ("localsolve", "solve_saddle_block", "localsolve.saddle_s", "localsolve.saddle_calls",
     lambda a, k, r: {"localsolve.constraint_columns": a[1].count}),
    ("msbasis", "build_bases", "msbasis.build_s", None, _built_counts),
    ("msbasis", "build_patch_systems", "msbasis.build_s", None, None),
    ("msbasis", "restrict_entry", "msbasis.restrict_s", "msbasis.restrict_calls", None),
    ("msbasis", "m_orthonormalize", "msbasis.orth_s", "msbasis.orth_calls", None),
    ("msgalerkin", "basis_matrix", "msgalerkin.basis_matrix_s", None, None),
    ("msgalerkin", "assemble_coarse", "msgalerkin.coarse_assemble_s", None, _coarse_counts),
    ("msgalerkin", "solve_ms", "msgalerkin.coarse_solve_s", None, None),
    ("specdiag", "local_eig", "specdiag.eig_s", "specdiag.eig_calls",
     lambda a, k, r: {"specdiag.eig_dofs": a[0].ndof}),
    ("specdiag", "rate_report", "specdiag.rate_report_s", None, None),
    ("specdiag", "check_interp_bound", "specdiag.interp_bound_s", None, None),
    ("specdiag", "principal_angles", "specdiag.angles_s", None, None),
    ("specdiag", "arnoldi", "specdiag.arnoldi_s", None, None),
    ("cli", "run_methods", "cli.study_s", None, None),
    ("cli", "cmd_eig_diag", "cli.study_s", None, None),
    ("cli", "write_csv", "cli.write_s", None, None),
]

# the metrics the counts functions above add to
COUNTS = ("grid.patches", "grid.patch_dofs", "fem.solve_columns",
          "localsolve.constraint_columns", "msbasis.local_problems",
          "msbasis.basis_columns", "msgalerkin.basis_nnz", "msgalerkin.coarse_dofs",
          "specdiag.eig_dofs")


def metric_units():
    """Every per-layer metric this module can report, with its unit."""
    units = {}
    for _, _, timed, calls, _ in TARGETS:
        units[timed] = "s"
        if calls:
            units[calls] = "count"
    units.update(dict.fromkeys(COUNTS, "count"))
    return units


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [metric, parent index, start, end]
        self.stack = []
        self.counts = defaultdict(float)
        self.absent = []
        self.recording = True

    def _open(self, metric):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([metric, parent, self.clock(), None])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][3] = self.clock()

    @contextlib.contextmanager
    def span(self, metric):
        """A span the benchmark opens itself."""
        self._open(metric)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, metric, calls, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if calls:
                self.counts[calls] += 1
            if counts:
                try:
                    for key, val in counts(args, kwargs, result).items():
                        self.counts[key] += val
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    note = f"{metric} counts: {exc}"
                    if note not in self.absent:
                        self.absent.append(note)
            return result

        return traced

    def install(self, package="mslab"):
        """Wrap every target found; record the missing ones as absent."""
        for module, qualname, metric, calls, counts in TARGETS:
            try:
                mod = importlib.import_module(f"{package}.{module}")
            except ImportError:
                self.absent.append(f"{module}.{qualname}")
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    self.absent.append(f"{module}.{qualname}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(
                        self.wrap(raw.__func__, metric, calls, counts)))
                else:
                    setattr(owner, attr, self.wrap(raw, metric, calls, counts))
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{qualname}")
                continue
            traced = self.wrap(fn, metric, calls, counts)
            for name, other in list(sys.modules.items()):
                if (name == package or name.startswith(package + ".")) \
                        and getattr(other, attr, None) is fn:
                    setattr(other, attr, traced)

    def self_times(self):
        """Self time per metric over all closed spans."""
        child = defaultdict(float)
        for metric, parent, start, end in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (metric, _, start, end) in enumerate(self.spans):
            if end is not None:
                out[metric] += (end - start) - child[k]
        return out

    def metrics(self):
        """Every per-layer metric, 0 where a layer did no work in this run."""
        units = metric_units()
        values = dict.fromkeys(units, 0.0)
        values.update(self.self_times())
        values.update(self.counts)
        return {k: v for k, v in values.items() if k in units}

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["metric", "parent", "start", "end"],
                       "spans": self.spans, "absent": self.absent}, f)
