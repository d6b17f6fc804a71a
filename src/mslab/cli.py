"""Experiment driver: config parsing, single solves, parameter sweeps and
diagnostic dumps.

Subcommands: gen-coeff, solve, sweep, eig-diag.  Config files are flat
``key = value`` text with bracketed section headers.  Exit codes: 0 success,
2 config error, 3 numerical failure.
"""

import argparse
import configparser
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import coeff, fem, grid, msbasis, msgalerkin, specdiag
from .errors import ConfigError, MsLabError

DEFAULT_METHODS = "lod, lssi-1, lssi-2, lssi-4, lksi-4"
EIG_ROUNDS = 6              # rounds per eig-diag angle table
EIG_BOUND_CHECKS = 10       # eig-diag interpolation-bound instances


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
    """Validated run configuration read from an INI-style file."""

    def __init__(self, path, overrides=None):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.optionxform = str          # h and H are distinct keys
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        section = "problem"
        try:
            prob = cp["problem"]
            self.kind = prob.get("kind", fem.DIFFUSION)
            if self.kind not in (fem.DIFFUSION, fem.ELASTICITY):
                raise ConfigError(f"problem.kind must be diffusion or elasticity, "
                                  f"got {self.kind!r}")
            self.h_inv = prob.getint("h", 0)
            self.H_inv = prob.getint("H", 0)
            if min(self.h_inv, self.H_inv) < 1:
                raise ConfigError("problem.h and problem.H must be given and >= 1")
            m_raw = prob.get("m", "4").strip()
            self.m_rule = m_raw == "ceil2log"
            self.m = m_from_rule(self.H_inv) if self.m_rule else int(m_raw)
            self.seed = prob.getint("seed", 0)
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
        if self.h_inv % self.H_inv != 0:
            raise ConfigError("problem.h must be a multiple of problem.H")
        if self.m < 0:
            raise ConfigError("problem.m must be >= 0")
        if self.coeff_source == "file":
            if not self.coeff_path or not Path(self.coeff_path).exists():
                raise ConfigError(f"coeff.path does not exist: {self.coeff_path!r}")

        for name, n in self.methods:
            if n is None and self.sweep_axis != "n":
                raise ConfigError(f"method {name} needs an iteration count, as in "
                                  f"{name}-2, unless sweep.axis = n")
            if n is not None and n < 1:
                raise ConfigError(f"method {name}-{n}: iteration count must be >= 1")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"problem.methods lists a method twice: {prob['methods']}")

        out = cp["output"] if cp.has_section("output") else {}
        self.heatmaps = str(out.get("heatmaps", "false")).lower() in ("1", "true", "yes")

        for key, val in (overrides or {}).items():
            if val is not None:
                setattr(self, key, val)

    def make_pair(self, H_inv=None):
        return grid.NestedPair(H_inv or self.H_inv, self.h_inv)

    def channel_length(self, channel_len=None):
        """Length of the generated channels, 0 for any other field."""
        if self.coeff_source == "file" or self.generator != "channels":
            return 0
        return channel_len or self.channel_len

    def make_field(self, pair, contrast=None, channel_len=None):
        if self.coeff_source == "file":
            return coeff.load_field(self.coeff_path)
        contrast = self.contrast if contrast is None else contrast
        try:
            if self.generator == "inclusions":
                return coeff.gen_inclusions(pair, self.density, contrast, self.seed)
            if self.generator == "channels":
                spec = coeff.ChannelSpec(
                    length_coarse=channel_len or self.channel_len,
                    thickness_fine=self.thickness, count=self.channel_count,
                    seed=self.seed, contrast=contrast)
                return coeff.gen_channels(pair, spec)
        except ValueError as exc:
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

    Returns (rows, context): rows are ResultRow objects carrying channel_len,
    the length of the field's channels; context carries the reference
    solution and padded multiscale solutions for plotting.  `tol` is ignored
    (the reference solve is direct); bench/study.py still passes it.
    """
    f = default_rhs(kind)
    u_ref_pad, system, b = fem.reference_solve(pair, field, kind, f)
    u_ref = system.restrict(u_ref_pad)

    built = msbasis.build_bases(pair, system, m, methods)

    rows = []
    solutions = {}
    for (name, n), (label, basis, stats, wall_build) in zip(methods, built):
        t0 = time.perf_counter()
        # the coarse system goes before the next method's is assembled
        u_ms, _ = msgalerkin.solve_ms(msgalerkin.assemble_coarse(system, b, basis))
        wall = time.perf_counter() - t0 + wall_build
        rows.append(msgalerkin.report(u_ref, u_ms, system.stiffness, system.mass, {
            "method": label, "n": n, "m": m, "H": pair.H, "h": pair.h,
            "contrast": field.contrast, "channel_len": channel_len,
            "DoF": basis.total_dofs, "wall_time_s": wall,
            "NoLP": stats.n_local_problems,
        }))
        solutions[label] = system.pad(u_ms)
    return rows, {"u_ref_pad": u_ref_pad, "system": system, "solutions": solutions}


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
    axis = cfg.sweep_axis
    if axis not in ("contrast", "channel", "H", "m", "n"):
        raise ConfigError(f"sweep.axis must be one of contrast/channel/H/m/n, "
                          f"got {axis!r}")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values is empty")
    iterated = list(dict.fromkeys(name for name, _ in cfg.methods if name != msbasis.LOD))
    if axis == "n" and not iterated:
        raise ConfigError("sweep.axis = n needs an lssi or lksi method in problem.methods")
    rows = []
    for val in cfg.sweep_values:
        pair = cfg.make_pair(H_inv=int(val) if axis == "H" else None)
        m, methods, channel_len = cfg.m, cfg.methods, None
        if axis == "contrast":
            field = cfg.make_field(pair, contrast=val)
        elif axis == "channel":
            channel_len = int(val)
            field = cfg.make_field(pair, channel_len=channel_len)
        else:
            field = cfg.make_field(pair)
        if axis == "H" and cfg.m_rule:
            m = m_from_rule(int(val))
        elif axis == "m":
            m = int(val)
        elif axis == "n":
            methods = [(name, int(val)) for name in iterated]
        res, _ = run_methods(pair, field, cfg.kind, m, methods,
                             channel_len=cfg.channel_length(channel_len))
        rows.extend(res)
    write_csv(out / f"sweep_{axis}.csv", rows, with_timing=with_timing)
    return 0


def cmd_eig_diag(cfg, out):
    """Angle tables over EIG_ROUNDS rounds, EIG_BOUND_CHECKS interpolation-bound
    pairs and Ritz tables for the config."""
    pair = cfg.make_pair()
    field = cfg.make_field(pair)
    kind = cfg.kind
    u_pad, gsys, _ = fem.reference_solve(pair, field, kind, default_rhs(kind))
    systems = msbasis.build_patch_systems(pair, gsys, cfg.m)
    pou = grid.build_pou(pair, [s.patch for s in systems])
    nb = fem.nblock(kind)
    L = 4 * nb
    eigs = [specdiag.local_eig(sys_, L + 1) for sys_ in systems]

    with open(out / "angles.csv", "w") as f:
        f.write("patch,method,round,angle,envelope,gap,fitted_rate\n")
        for sys_, eig in zip(systems, eigs):
            for method in ("lssi", "lksi"):
                # lksi follows one chain towards the leading eigenvector
                pairs = eig if method == "lssi" else \
                    specdiag.EigPairs(eig.values[:2], eig.vectors[:, :2])
                rep = specdiag.rate_report(sys_, pairs, EIG_ROUNDS, method=method)
                fit = "" if rep.fitted_rate is None else f"{rep.fitted_rate:.6e}"
                for rnd, ang, env in rep.rows():
                    f.write(f"{sys_.patch.center},{method},{rnd},{ang:.10e},"
                            f"{env:.10e},{rep.gap:.10e},{fit}\n")

    rng = np.random.default_rng(cfg.seed)
    with open(out / "interp_bound.csv", "w") as f:
        f.write("instance,lhs,rhs\n")
        for k in range(EIG_BOUND_CHECKS):
            if k == 0:
                u = u_pad
            else:
                u = np.zeros(pair.fine.n_nodes * nb)
                u[gsys.dofs] = rng.standard_normal(gsys.ndof)
            lhs, rhs = specdiag.check_interp_bound(systems, pou, eigs, u, gsys)
            f.write(f"{k},{lhs:.10e},{rhs:.10e}\n")

    with open(out / "ritz.csv", "w") as f:
        f.write("patch,index,ritz_value\n")
        for sys_ in systems[: min(4, len(systems))]:
            x0 = np.ones(sys_.ndof)
            res = specdiag.arnoldi(lambda v: sys_.solve(sys_.M @ v), x0,
                                   min(8, sys_.ndof), inner=sys_.A)
            for i, w in enumerate(res.ritz_values):
                f.write(f"{sys_.patch.center},{i},{w:.10e}\n")
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

    try:
        cfg = RunConfig(args.config, overrides={"seed": args.seed})
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with_timing = not args.no_timing
    try:
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
