"""Experiment driver: config parsing, single solves, parameter sweeps and
diagnostic dumps.

Subcommands: gen-coeff, solve, sweep, eig-diag.  Config files are flat
``key = value`` text with bracketed section headers.  Exit codes: 0 success,
2 config error, 3 numerical failure.
"""

import argparse
import configparser
import copy
import functools
import logging
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import coeff, fem, grid, msbasis, msgalerkin, specdiag
from .errors import ChannelOverflow, ConfigError, CoverGap, MsLabError, ParseError

DEFAULT_METHODS = "lod, lssi-1, lssi-2, lssi-4, lksi-4"
EIG_ROUNDS = 6              # rounds per eig-diag angle table
EIG_BOUND_CHECKS = 10       # eig-diag interpolation-bound instances
# sweep axis -> the RunConfig attribute each point sets, and the type it takes
SWEEP_AXES = {"contrast": ("contrast", float), "channel": ("channel_len", int),
              "H": ("H_inv", int), "m": ("m_given", int), "n": ("methods", int)}
# the config sections and the keys of each that RunConfig reads; any other
# section or key is a config error
CONFIG_KEYS = {"problem": ("kind", "h", "H", "m", "seed", "methods"),
               "coeff": ("source", "path", "generator", "density", "contrast",
                         "channel_len", "thickness", "count"),
               "sweep": ("axis", "values"),
               "solver": ("tol",),
               "output": ("heatmaps",)}

log = logging.getLogger(__name__)


def default_rhs(kind):
    if kind == fem.DIFFUSION:
        return lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    return lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y), np.ones_like(x))


def parse_method(token):
    """'lod' | 'lssi-3' | 'lksi-4' -> (name, n)."""
    token = token.strip().lower()
    if token == msbasis.LOD:
        return (msbasis.LOD, 1)
    for name in (msbasis.LSSI, msbasis.LKSI):
        if token == name:
            return (name, None)
        if token.startswith(name + "-"):
            try:
                return (name, int(token[len(name) + 1:]))
            except ValueError:
                pass
    raise ConfigError(f"unknown method: {token!r}")


def m_from_rule(H_inv):
    """Oversampling-layer rule m = ceil(2 log(1/H))."""
    return int(math.ceil(2.0 * math.log(H_inv)))


class RunConfig:
    """Validated run configuration read from an INI-style file, of the
    sections and keys in CONFIG_KEYS alone; `seed`, when given, replaces
    problem.seed.  A sweep point is a copy with one attribute set, held to
    the same rules (check) and generators (make_field)."""

    def __init__(self, path, seed=None):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.optionxform = str          # h and H are distinct keys
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for name in cp.sections():
            if name not in CONFIG_KEYS:
                raise ConfigError(f"unknown section [{name}]; the sections are "
                                  f"{', '.join(CONFIG_KEYS)}")
            unknown = [key for key in cp[name] if key not in CONFIG_KEYS[name]]
            if unknown:
                raise ConfigError(f"unknown key {name}.{unknown[0]}; [{name}] takes "
                                  f"{', '.join(CONFIG_KEYS[name])}")
        section = "problem"
        try:
            prob = cp["problem"]
            self.kind = prob.get("kind", fem.DIFFUSION)
            if self.kind not in (fem.DIFFUSION, fem.ELASTICITY):
                raise ConfigError(f"problem.kind must be diffusion or elasticity, "
                                  f"got {self.kind!r}")
            self.h_inv = prob.getint("h", 0)
            self.H_inv = prob.getint("H", 0)
            m_raw = prob.get("m", "4").strip()
            self.m_given = m_raw if m_raw == "ceil2log" else int(m_raw)
            self.seed = prob.getint("seed", 0) if seed is None else seed
            self.methods = [parse_method(t)
                            for t in prob.get("methods", DEFAULT_METHODS).split(",")]

            section = "coeff"
            c = cp["coeff"] if cp.has_section("coeff") else {}
            self.coeff_source = c.get("source", "generator")
            self.coeff_path = c.get("path", None)
            self.generator = c.get("generator", "inclusions")
            self.density = float(c.get("density", 0.12))
            self.contrast = float(c.get("contrast", 1e4))
            self.channel_len = int(c.get("channel_len", 4))
            self.thickness = int(c.get("thickness", 3))
            self.channel_count = int(c.get("count", 5))

            section = "sweep"
            s = cp["sweep"] if cp.has_section("sweep") else {}
            self.sweep_axis = s.get("axis", None)
            vals = s.get("values", "")
            self.sweep_values = [float(v) for v in vals.split(",") if v.strip()]

            # unused by the direct solves; read only because bench/study.py passes it
            section = "solver"
            sol = cp["solver"] if cp.has_section("solver") else {}
            self.tol = float(sol.get("tol", 1e-10))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{section} section: {exc}")
        if self.seed < 0:
            raise ConfigError(f"problem.seed (or --seed) must be >= 0, got {self.seed}")
        if self.coeff_source not in ("generator", "file"):
            raise ConfigError(f"coeff.source must be generator or file, "
                              f"got {self.coeff_source!r}")
        if self.coeff_source == "file":
            if not self.coeff_path or not Path(self.coeff_path).exists():
                raise ConfigError(f"coeff.path does not exist: {self.coeff_path!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"problem.methods lists a method twice: {prob['methods']}")
        self.check()

        out = cp["output"] if cp.has_section("output") else {}
        self.heatmaps = str(out.get("heatmaps", "false")).lower() in ("1", "true", "yes")

    @property
    def m(self):
        """Oversampling layers: problem.m, or m_from_rule(H) for m = ceil2log."""
        return m_from_rule(self.H_inv) if self.m_given == "ceil2log" else self.m_given

    def check(self):
        """The rules on h, H, m and the methods, which cmd_sweep holds every
        point to as well: h and H at least 1, H dividing h, m at least 0 and
        each iteration count at least 1, given unless sweep.axis = n."""
        if min(self.h_inv, self.H_inv) < 1:
            raise ConfigError("problem.h and problem.H must be given and >= 1")
        if self.h_inv % self.H_inv != 0:
            raise ConfigError("problem.h must be a multiple of problem.H")
        if self.m < 0:
            raise ConfigError("problem.m must be >= 0")
        for name, n in self.methods:
            if n is None and self.sweep_axis != "n":
                raise ConfigError(f"method {name} needs an iteration count, as in "
                                  f"{name}-2, unless sweep.axis = n")
            if n is not None and n < 1:
                raise ConfigError(f"method {name}-{n}: iteration count must be >= 1")

    def make_pair(self):
        return grid.NestedPair(self.H_inv, self.h_inv)

    def channel_length(self):
        """Length of the generated channels, 0 for any other field."""
        if self.coeff_source == "file" or self.generator != "channels":
            return 0
        return self.channel_len

    def make_field(self, pair):
        if self.coeff_source == "file":
            try:
                field, n = coeff.load_field(self.coeff_path), pair.fine.n
            except ParseError as exc:
                raise ConfigError(f"coeff.path {self.coeff_path}: {exc}")
            if field.values.shape != (n, n):
                rows, cols = field.values.shape
                raise ConfigError(f"coeff.path holds {rows} rows of {cols} values; "
                                  f"problem.h = {self.h_inv} needs {n} rows of {n}")
            return field
        try:
            if self.generator == "inclusions":
                return coeff.gen_inclusions(pair, self.density, self.contrast, self.seed)
            if self.generator == "channels":
                spec = coeff.ChannelSpec(
                    length_coarse=self.channel_len,
                    thickness_fine=self.thickness, count=self.channel_count,
                    seed=self.seed, contrast=self.contrast)
                return coeff.gen_channels(pair, spec)
        except (ValueError, ChannelOverflow) as exc:
            raise ConfigError(f"coeff section: {exc}")
        raise ConfigError(f"unknown generator: {self.generator!r}")


def write_pgm(path, values, log10=False):
    """ASCII (P2) grayscale heatmap, values mapped linearly to 0..255."""
    v = np.asarray(values, dtype=float)
    if log10:
        v = np.log10(v)
    lo, hi = v.min(), v.max()
    pix = np.zeros(v.shape, dtype=int) if hi == lo else \
        np.rint(255 * (v - lo) / (hi - lo)).astype(int)
    with open(path, "w") as f:
        f.write(f"P2\n{v.shape[1]} {v.shape[0]}\n255\n")
        for row in pix[::-1]:                       # top row of image = y max
            f.write(" ".join(str(p) for p in row) + "\n")


def run_methods(pair, field, kind, m, methods, tol=None, channel_len=0):
    """Reference solve plus one coarse solve per method.

    Returns (rows, context): rows are ResultRow objects, in method order,
    carrying channel_len, the length of the field's channels; context carries
    the reference solution and padded multiscale solutions for plotting, and
    under "coarse" each method's coarse DoFs and condition estimate, which
    are logged at INFO.  The bases are built by msbasis.build_bases, then
    each method's coarse phase (_coarse_solve) runs through
    msbasis.forked_map, one method per task.  `tol` is ignored (the
    reference solve is direct); bench/study.py still passes it.
    """
    f = default_rhs(kind)
    u_ref_pad, system, b = fem.reference_solve(pair, field, kind, f)
    u_ref = system.restrict(u_ref_pad)

    built = msbasis.build_bases(pair, system, m, methods)
    meta = (m, pair.H, pair.h, field.contrast, channel_len)
    done = msbasis.forked_map(
        functools.partial(_coarse_solve, system, b, u_ref, meta, methods, built),
        range(len(methods)))

    rows, solutions, coarse = [], {}, {}
    for row, u_ms, dof, cond in done:
        rows.append(row)
        solutions[row.method] = system.pad(u_ms)
        coarse[row.method] = {"dof": dof, "cond_estimate": cond}
        log.info("%s: %d coarse DoFs, condition estimate %.3e", row.method, dof, cond)
    return rows, {"u_ref_pad": u_ref_pad, "system": system, "solutions": solutions,
                  "coarse": coarse}


def _coarse_solve(system, b, u_ref, meta, methods, built, j):
    """Assemble, factor and solve method j's coarse system and report on it.

    Returns (ResultRow, free-DOF solution, coarse DoFs, condition estimate);
    meta holds the row's m, H, h, contrast and channel_len.  The row's wall
    time is the method's build seconds plus its coarse assembly and solve
    seconds.  run_methods maps this over the methods through
    msbasis.forked_map, so each worker inherits the system and the bases and
    holds one method's coarse system at a time."""
    label, basis, stats, wall_build = built[j]
    t0 = time.perf_counter()
    cs = msgalerkin.assemble_coarse(system, b, basis)
    u_ms, _ = msgalerkin.solve_ms(cs)
    wall = time.perf_counter() - t0 + wall_build
    errors = fem.relative_errors(u_ref, u_ms, system.stiffness, system.mass)
    row = msgalerkin.ResultRow(label, msbasis.iteration_count(methods[j]), *meta, *errors,
                               basis.total_dofs, wall, stats.n_local_problems)
    return row, u_ms, cs.dof, cs.cond_estimate


def write_csv(path, rows, with_timing=True):
    with open(path, "w") as f:
        f.write(msgalerkin.ResultRow.header() + "\n")
        for r in rows:
            f.write(r.to_csv(with_timing=with_timing) + "\n")


def _solution_grid(pair, u_pad, kind):
    n = pair.fine.n
    if kind == fem.ELASTICITY:
        u_pad = u_pad[0::2]                         # first displacement component
    return np.asarray(u_pad).reshape(n + 1, n + 1)


def cmd_gen_coeff(cfg, out):
    pair = cfg.make_pair()
    field = cfg.make_field(pair)
    coeff.save_field(field, out / "coeff.txt")
    write_pgm(out / "coeff.pgm", field.values, log10=True)
    return 0


def cmd_solve(cfg, out, with_timing=True):
    pair = cfg.make_pair()
    field = cfg.make_field(pair)
    rows, ctx = run_methods(pair, field, cfg.kind, cfg.m, cfg.methods,
                            channel_len=cfg.channel_length())
    write_csv(out / "results.csv", rows, with_timing=with_timing)
    if cfg.heatmaps:
        write_pgm(out / "u_ref.pgm", _solution_grid(pair, ctx["u_ref_pad"], cfg.kind))
        for label, u in ctx["solutions"].items():
            write_pgm(out / f"u_{label}.pgm", _solution_grid(pair, u, cfg.kind))
    return 0


def cmd_sweep(cfg, out, with_timing=True):
    """One run_methods per sweep value, on a copy of cfg with the axis's
    attribute set (SWEEP_AXES): the rows one `mslab solve` per point gives.
    Every point is checked and given its pair and field before the first
    solve, so a value the config or the generator rejects runs none."""
    axis = cfg.sweep_axis
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {'/'.join(SWEEP_AXES)}, "
                          f"got {axis!r}")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values is empty")
    iterated = list(dict.fromkeys(name for name, _ in cfg.methods if name != msbasis.LOD))
    if axis == "n" and not iterated:
        raise ConfigError("sweep.axis = n needs an lssi or lksi method in problem.methods")
    if axis == "contrast" and cfg.coeff_source == "file":
        raise ConfigError("sweep.axis = contrast needs a generated field, not coeff.source = file")
    if axis == "channel" and not cfg.channel_length():
        raise ConfigError("sweep.axis = channel needs coeff.generator = channels")
    attr, cast = SWEEP_AXES[axis]
    points = []
    for val in cfg.sweep_values:
        if cast is int and not val.is_integer():
            raise ConfigError(f"sweep.values: {axis} = {val:g} must be an integer")
        point = copy.copy(cfg)
        setattr(point, attr, [(name, int(val)) for name in iterated] if axis == "n"
                else cast(val))
        try:
            point.check()
            pair = point.make_pair()
            points.append((point, pair, point.make_field(pair)))
        except ConfigError as exc:
            raise ConfigError(f"sweep.values: {axis} = {val:g}: {exc}")
    rows = []
    for point, pair, field in points:
        res, _ = run_methods(pair, field, point.kind, point.m, point.methods,
                             channel_len=point.channel_length())
        rows.extend(res)
    write_csv(out / f"sweep_{axis}.csv", rows, with_timing=with_timing)
    return 0


def _nest_diag(gsys, patches, pou, us, count, nest):
    """eig-diag's work on one nest of `patches`, per patch in nest order:
    the last of its leading `count` eigenvalues (lanczos_eig), its lssi and
    lksi rate reports over EIG_ROUNDS rounds, its lksi-8 Ritz values if it
    is one of patches 0-3 (else None) and its interp_terms for the instances
    `us`.  The factor and the eigenvectors stay in this task."""
    out = []
    for k, sys_ in zip(nest[0], msbasis.nest_systems(gsys, patches, nest)):
        eig = specdiag.lanczos_eig(sys_, count)
        # lksi follows one chain towards the leading eigenvector
        lead = specdiag.EigPairs(eig.values[:2], eig.vectors[:, :2])
        reports = [specdiag.rate_report(sys_, eig, EIG_ROUNDS, method="lssi"),
                   specdiag.rate_report(sys_, lead, EIG_ROUNDS, method="lksi")]
        ritz = specdiag.ritz_values(sys_, 8) if k < 4 else None
        out.append((eig.values[-1], reports, ritz,
                    specdiag.interp_terms(sys_, pou.dense(k), eig, us)))
    return out


def cmd_eig_diag(cfg, out):
    """Angle tables over EIG_ROUNDS rounds, EIG_BOUND_CHECKS interpolation-bound
    pairs and the lksi-8 Ritz values of four patches for the config.

    Every patch needs more DOFs than the L+1 pairs taken, and the patches'
    partition of unity must cover the fine grid (m = 0 leaves it uncovered),
    both checked before any solve.  The bound's instances (the reference
    solution, then seeded random vectors) are drawn here, and _nest_diag
    maps over patch_nests through msbasis.forked_map: the workers inherit
    the instances, factor the nests and return no eigenvector; the bound's
    terms are summed here in patch order (specdiag.interp_bound)."""
    pair = cfg.make_pair()
    kind, nb = cfg.kind, fem.nblock(cfg.kind)
    L = 4 * nb
    patches = grid.build_all_patches(pair, cfg.m)
    small = [p.center for p in patches if nb * p.interior_nodes.size <= L + 1]
    if small:
        raise ConfigError(f"eig-diag needs more than {L + 1} DOFs per patch; {len(small)} "
                          f"have {L + 1} or fewer, the first around coarse element {small[0]}")
    try:
        pou = grid.build_pou(pair, patches)
    except CoverGap as exc:
        raise ConfigError(f"problem.m = {cfg.m} leaves the fine grid uncovered: {exc}")
    field = cfg.make_field(pair)
    u_pad, gsys, _ = fem.reference_solve(pair, field, kind, default_rhs(kind))
    rng = np.random.default_rng(cfg.seed)
    us = [u_pad] + [np.zeros(pair.fine.n_nodes * nb) for _ in range(1, EIG_BOUND_CHECKS)]
    for u in us[1:]:
        u[gsys.dofs] = rng.standard_normal(gsys.ndof)
    nests = msbasis.patch_nests(patches)
    diags = [None] * len(patches)
    for (ks, _), done in zip(nests, msbasis.forked_map(
            functools.partial(_nest_diag, gsys, patches, pou, us, L + 1), nests)):
        for k, diag in zip(ks, done):
            diags[k] = diag

    with open(out / "angles.csv", "w") as f:
        f.write("patch,method,round,angle,envelope,gap,fitted_rate\n")
        for patch, (_, reports, _, _) in zip(patches, diags):
            for rep in reports:
                fit = "" if rep.fitted_rate is None else f"{rep.fitted_rate:.6e}"
                for rnd, ang, env in rep.rows():
                    f.write(f"{patch.center},{rep.method},{rnd},{ang:.10e},"
                            f"{env:.10e},{rep.gap:.10e},{fit}\n")

    lam_next = max(lam for lam, _, _, _ in diags)
    with open(out / "interp_bound.csv", "w") as f:
        f.write("instance,lhs,rhs\n")
        for k, u in enumerate(us):
            lhs, rhs = specdiag.interp_bound(patches, [terms[k] for *_, terms in diags],
                                             lam_next, u, gsys)
            f.write(f"{k},{lhs:.10e},{rhs:.10e}\n")

    with open(out / "ritz.csv", "w") as f:
        f.write("patch,index,ritz_value\n")
        for patch, (_, _, ritz, _) in zip(patches[:4], diags):
            for i, w in enumerate(ritz):
                f.write(f"{patch.center},{i},{w:.10e}\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mslab",
        description="Multiscale FEM experiments: coefficient generation, "
                    "coarse-space solves, sweeps and spectral diagnostics.")
    ap.add_argument("command", choices=["gen-coeff", "solve", "sweep", "eig-diag"])
    ap.add_argument("--config", required=True, help="INI-style run configuration")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--no-timing", action="store_true",
                    help="blank the wall-time column for byte-stable CSVs")
    args = ap.parse_args(argv)

    with_timing = not args.no_timing
    try:
        cfg = RunConfig(args.config, seed=args.seed)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: {exc.strerror}")
        if args.command == "gen-coeff":
            return cmd_gen_coeff(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out, with_timing=with_timing)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, with_timing=with_timing)
        return cmd_eig_diag(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except MsLabError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
