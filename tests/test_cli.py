"""Driver tests: config parsing, subcommands, artifacts, determinism, exit codes."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslab
from conftest import force_workers
from mslab import cli, coeff, fem, grid, localsolve, msbasis, msgalerkin, specdiag
from mslab.errors import DependentConstraints, NotSPD, SingularCoarse


BASE_CONFIG = """\
[problem]
kind = diffusion
h = 16
H = 4
m = 1
seed = 3
methods = lod, lssi-1, lksi-2

[coeff]
generator = inclusions
density = 0.12
contrast = 1e3

[solver]
tol = 1e-10
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_method_tokens():
    assert cli.parse_method("lod") == ("lod", 1)
    assert cli.parse_method("LSSI-3") == ("lssi", 3)
    assert cli.parse_method("lksi-4") == ("lksi", 4)
    from mslab.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.parse_method("spectral-7")


def test_m_rule():
    # ceil(2 ln 10) = 5, ceil(2 ln 20) = 6
    assert cli.m_from_rule(10) == 5
    assert cli.m_from_rule(20) == 6


def test_config_validation(tmp_path):
    from mslab.errors import ConfigError
    cfg = cli.RunConfig(write_config(tmp_path))
    assert cfg.kind == "diffusion"
    assert cfg.h_inv == 16 and cfg.H_inv == 4 and cfg.m == 1
    assert cfg.methods == [("lod", 1), ("lssi", 1), ("lksi", 2)]
    bad = BASE_CONFIG.replace("h = 16", "h = 15")
    with pytest.raises(ConfigError):
        cli.RunConfig(write_config(tmp_path, bad, "bad.ini"))


@pytest.mark.parametrize("methods", ["lssi-0", "lksi-0", "lssi", "lssi-2, lssi-2, lksi-2",
                                     "lod, lssi-1, lod"])
def test_iteration_count_validated(tmp_path, methods):
    """n < 1, a bare name outside an n sweep, or a method listed twice (not
    a second row with doubled counts) is a config error (exit 2)."""
    text = BASE_CONFIG.replace("methods = lod, lssi-1, lksi-2", f"methods = {methods}")
    p = write_config(tmp_path, text, "n.ini")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "results.csv").exists()


def test_bare_method_names_in_n_sweep(tmp_path):
    text = BASE_CONFIG.replace("methods = lod, lssi-1, lksi-2", "methods = lod, lssi, lksi")
    p = write_config(tmp_path, text + "\n[sweep]\naxis = n\nvalues = 1, 2\n", "n.ini")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "sweep_n.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["lssi-1", "lksi-1", "lssi-2", "lksi-2"]


def test_n_sweep_one_row_per_method(tmp_path):
    """On the n axis, lssi-1 and lssi-2 both become lssi-3: one row, with
    the local problems of lssi-3 alone (25 patches x 4 shapes x 3 rounds)."""
    text = BASE_CONFIG.replace("h = 16", "h = 20").replace("H = 4", "H = 5")
    text = text.replace("methods = lod, lssi-1, lksi-2", "methods = lssi-1, lssi-2")
    p = write_config(tmp_path, text + "\n[sweep]\naxis = n\nvalues = 3\n", "n.ini")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    header, *rows = (out / "sweep_n.csv").read_text().splitlines()
    assert len(rows) == 1
    row = dict(zip(header.split(","), rows[0].split(",")))
    assert row["method"] == "lssi-3" and row["NoLP"] == "300"


def test_n_sweep_of_lod_alone_is_config_error(tmp_path, monkeypatch):
    """LOD has no iteration count, so an n sweep over it alone has nothing
    to run: a config error before any solve, and no CSV."""
    text = BASE_CONFIG.replace("methods = lod, lssi-1, lksi-2", "methods = lod")
    p = write_config(tmp_path, text + "\n[sweep]\naxis = n\nvalues = 2, 3\n", "n.ini")
    out = tmp_path / "out"

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(cli, "run_methods", no_solve)
    assert cli.main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert not (out / "sweep_n.csv").exists()


def test_solve_channels_writes_channel_len(tmp_path):
    text = BASE_CONFIG.replace("generator = inclusions",
                               "generator = channels\nchannel_len = 3\n"
                               "thickness = 1\ncount = 1")
    text = text.replace("methods = lod, lssi-1, lksi-2", "methods = lssi-1")
    p = write_config(tmp_path, text, "chan.ini")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(p), "--out", str(out)]) == 0
    header, row = (out / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["channel_len"] == "3"


def test_config_m_rule(tmp_path):
    text = BASE_CONFIG.replace("m = 1", "m = ceil2log")
    cfg = cli.RunConfig(write_config(tmp_path, text, "rule.ini"))
    assert cfg.m == cli.m_from_rule(4)


def test_missing_config_exit_code(tmp_path):
    rc = cli.main(["solve", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def forbid_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(cli, "run_methods", no_solve)


def test_bad_config_exit_code(tmp_path):
    p = write_config(tmp_path, BASE_CONFIG.replace("kind = diffusion",
                                                   "kind = heat"), "bad.ini")
    rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("old, new", [
    ("H = 4", "H = 0"), ("h = 16\n", ""), ("h = 16\nH = 4", "h = 16\nH = -8"),
    ("density = 0.12", "density = 2"), ("contrast = 1e3", "contrast = 0.5"),
    ("density = 0.12", "density = abc"),
    ("[solver]", "[sweep]\naxis = contrast\nvalues = 1e2, x\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = H\nvalues = 2, 3\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = H\nvalues = 2.5\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = m\nvalues = 1, -1\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = n\nvalues = 0\n\n[solver]"),
    ("generator = inclusions", "generator = channels\nchannel_len = 9"),
    ("[coeff]\ngenerator = inclusions",
     "[sweep]\naxis = channel\nvalues = 2, 9\n\n[coeff]\ngenerator = channels"),
    ("[solver]", "[sweep]\naxis = channel\nvalues = 2, 3\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = contrast\nvalues = 1e2, 0.5\n\n[solver]"),
    ("contrast = 1e3", "contrast = nan"),
    ("generator = inclusions\ndensity = 0.12\ncontrast = 1e3",
     "generator = channels\ncontrast = inf"),
    ("[solver]", "[sweep]\naxis = contrast\nvalues = 1e2, nan\n\n[solver]"),
    ("[solver]", "[sweep]\naxis = contrast\nvalues = 1e2, inf\n\n[solver]"),
    ("seed = 3", "seed = -1"),
    ("[coeff]\ngenerator = inclusions",
     "[sweep]\naxis = H\nvalues = 4, 2\n\n[coeff]\ngenerator = channels\nchannel_len = 4"),
    ("density = 0.12\ncontrast = 1e3", "density = 0\ncontrast = inf"),
    ("generator = inclusions", "generator = channels\ncount = -1"),
], ids=["H-zero", "h-missing", "H-negative", "density-2", "contrast-half",
        "density-text", "sweep-value-text", "sweep-H-not-dividing-h", "sweep-H-fraction",
        "sweep-m-negative", "sweep-n-zero", "channel-too-long", "sweep-channel-too-long",
        "sweep-channel-of-inclusions", "sweep-contrast-below-1", "contrast-nan",
        "channels-contrast-inf", "sweep-contrast-nan", "sweep-contrast-inf", "seed-negative",
        "sweep-H-below-channel", "contrast-inf-density-0", "channel-count-negative"])
def test_config_value_errors_exit_2(tmp_path, monkeypatch, capsys, old, new):
    """A bad value in any section, one the coefficient generator rejects (at
    any density), a negative seed, a channel longer than the domain, a sweep
    value that the config or the generator rejects at any point or a sweep
    axis the field does not depend on is a config error (exit 2), raised
    before any solve, that writes no CSV."""
    assert old in BASE_CONFIG
    p = write_config(tmp_path, BASE_CONFIG.replace(old, new), "bad.ini")
    out = tmp_path / "out"
    forbid_solve(monkeypatch)
    command = "sweep" if "[sweep]" in new else "solve"
    assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


DEMOS = ["spectral_rates"] + [pytest.param(name, marks=pytest.mark.slow) for name in
                              ("channel_length", "contrast_robustness", "elasticity",
                               "inclusions_comparison")]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    """Each script in demos/ runs to the end in a fresh interpreter without a
    RuntimeWarning.  They import mslab before numpy, so they run without a
    BLAS thread warning even when no thread variable is set."""
    demo = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(mslab.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr


def test_gen_coeff_artifacts(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["gen-coeff", "--config", str(p), "--out", str(out)])
    assert rc == 0
    field = coeff.load_field(out / "coeff.txt")
    assert field.values.shape == (16, 16)
    pgm = (out / "coeff.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "16 16"


def test_gen_coeff_channel_band(tmp_path):
    """A full-length channel shows up as a bright full-width band in the PGM."""
    text = BASE_CONFIG.replace("generator = inclusions",
                               "generator = channels\nchannel_len = 4\n"
                               "thickness = 2\ncount = 1")
    p = write_config(tmp_path, text, "chan.ini")
    out = tmp_path / "out"
    assert cli.main(["gen-coeff", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "coeff.pgm").read_text().splitlines()
    pix = np.array([[int(t) for t in row.split()] for row in lines[3:]])
    bright_rows = np.flatnonzero((pix == 255).all(axis=1))
    assert bright_rows.size == 2              # thickness in fine cells


def test_solve_writes_results(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(p), "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("method,n,m,H,h,contrast")
    assert len(lines) == 4                    # header + 3 methods
    assert lines[1].split(",")[0] == "lod"


def test_solve_heatmaps(tmp_path):
    text = BASE_CONFIG + "\n[output]\nheatmaps = true\n"
    p = write_config(tmp_path, text, "hm.ini")
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "u_ref.pgm").exists()
    assert (out / "u_lod.pgm").exists()
    assert (out / "u_lssi-1.pgm").exists()


def test_sweep_contrast_rows(tmp_path):
    text = BASE_CONFIG + "\n[sweep]\naxis = contrast\nvalues = 1e2, 1e4\n"
    p = write_config(tmp_path, text, "sw.ini")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "sweep_contrast.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3            # header + 2 values x 3 methods


# axis -> (the BASE_CONFIG text a point sets, the point's text, sweep values)
SWEEP_POINTS = {
    "n": ("methods = lod, lssi-1, lksi-2", "methods = lssi-{v}, lksi-{v}", "1, 3"),
    "contrast": ("contrast = 1e3", "contrast = {v}", "1e2, 1e4"),
    "channel": ("generator = inclusions", "generator = channels\nchannel_len = {v}", "2, 3"),
    "H": ("H = 4\nm = 1", "H = {v}\nm = ceil2log", "2, 4"),
    "m": ("m = 1", "m = {v}", "0, 2"),
}


@pytest.mark.parametrize("axis", list(SWEEP_POINTS))
def test_sweep_rows_are_one_solve_per_point(tmp_path, axis):
    """Under --no-timing, sweep_<axis>.csv holds the rows that one
    `mslab solve` per sweep value gives, in value order."""
    old, point, values = SWEEP_POINTS[axis]
    # the sweep config is at the first point, but for n: it lists lod and
    # lssi-1, lksi-2, and each point drops lod and gives the others its count
    text = BASE_CONFIG if axis == "n" else BASE_CONFIG.replace(
        old, point.format(v=values.split(",")[0]))
    p = write_config(tmp_path, text + f"\n[sweep]\naxis = {axis}\nvalues = {values}\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(p), "--out", str(out), "--no-timing"]) == 0
    want = []
    for k, v in enumerate(values.split(",")):
        q = write_config(tmp_path, BASE_CONFIG.replace(old, point.format(v=v.strip())),
                         f"point{k}.ini")
        assert cli.main(["solve", "--config", str(q), "--out", str(tmp_path / f"p{k}"),
                         "--no-timing"]) == 0
        lines = (tmp_path / f"p{k}" / "results.csv").read_text().splitlines(True)
        want += lines if k == 0 else lines[1:]
    assert (out / f"sweep_{axis}.csv").read_text() == "".join(want)
    assert len(want) == 1 + 2 * (2 if axis == "n" else 3)


def test_sweep_requires_axis(tmp_path):
    p = write_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_sweep_deterministic_without_timing(tmp_path):
    text = BASE_CONFIG + "\n[sweep]\naxis = contrast\nvalues = 1e2, 1e3\n"
    p = write_config(tmp_path, text, "det.ini")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        rc = cli.main(["sweep", "--config", str(p), "--out", str(out),
                       "--no-timing"])
        assert rc == 0
    b1 = (out1 / "sweep_contrast.csv").read_bytes()
    b2 = (out2 / "sweep_contrast.csv").read_bytes()
    assert b1 == b2


def test_timing_column_blanked(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(p), "--out", str(out),
                     "--no-timing"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    for line in lines[1:]:
        assert line.split(",")[10] == ""


def test_seed_override_changes_field(tmp_path):
    p = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["gen-coeff", "--config", str(p), "--out", str(out1)])
    cli.main(["gen-coeff", "--config", str(p), "--out", str(out2), "--seed", "9"])
    f1 = coeff.load_field(out1 / "coeff.txt")
    f2 = coeff.load_field(out2 / "coeff.txt")
    assert not np.array_equal(f1.values, f2.values)


def test_coeff_from_file_roundtrip(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "gen"
    cli.main(["gen-coeff", "--config", str(p), "--out", str(out)])
    text = BASE_CONFIG + f"\n"
    text = text.replace("[coeff]\ngenerator",
                        f"[coeff]\nsource = file\npath = {out / 'coeff.txt'}\ngenerator")
    p2 = write_config(tmp_path, text, "file.ini")
    out2 = tmp_path / "solved"
    assert cli.main(["solve", "--config", str(p2), "--out", str(out2)]) == 0


def file_config(tmp_path, values):
    """BASE_CONFIG reading its coefficient field from a file of `values`."""
    path = tmp_path / "coeff.txt"
    coeff.save_field(coeff.CoefficientField(values), path)
    return write_config(tmp_path, BASE_CONFIG.replace(
        "[coeff]\n", f"[coeff]\nsource = file\npath = {path}\n"), "file.ini")


@pytest.mark.parametrize("shape", [(32, 8), (8, 8)], ids=["same-count", "too-few"])
def test_coeff_file_of_another_grid_is_config_error(tmp_path, monkeypatch, capsys, shape):
    """A coefficient file whose grid is not problem.h's, whether or not it
    holds as many values, is a config error (exit 2) naming both grids,
    raised before any solve."""
    p = file_config(tmp_path, np.ones(shape))
    forbid_solve(monkeypatch)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"holds {shape[0]} rows of {shape[1]} values" in err
    assert "problem.h = 16 needs 16 rows of 16" in err


def test_malformed_coeff_file_is_config_error(tmp_path, monkeypatch, capsys):
    """A coefficient file that does not parse is a config error (exit 2)
    naming the line, raised before any solve."""
    p = file_config(tmp_path, np.ones((16, 16)))
    path = tmp_path / "coeff.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "1 x"] + lines[2:]) + "\n")
    forbid_solve(monkeypatch)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "line 2" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_nonfinite_coeff_file_is_config_error(tmp_path, monkeypatch, capsys, token):
    """A coefficient file holding a value that is not finite is a config
    error (exit 2) naming its line and column, raised before any solve."""
    p = file_config(tmp_path, np.ones((16, 16)))
    path = tmp_path / "coeff.txt"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace("1", token, 1)
    path.write_text("\n".join(lines) + "\n")
    forbid_solve(monkeypatch)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "line 4, column 1" in err


@pytest.mark.parametrize("old, new, named", [
    ("[coeff]\n", "[coeff]\nsource = files\n", "coeff.source must be generator or file, "
                                                 "got 'files'"),
    ("methods = lod, lssi-1, lksi-2", "method = lssi-2", "unknown key problem.method"),
    ("contrast = 1e3", "contrst = 1e6", "unknown key coeff.contrst"),
    ("[solver]", "[solvers]", "unknown section [solvers]"),
], ids=["source", "problem-key", "coeff-key", "section"])
def test_config_typo_is_config_error(tmp_path, monkeypatch, capsys, old, new, named):
    """A misspelt section, key or coeff.source is a config error (exit 2)
    that names it, raised before any solve, not a run on the defaults."""
    assert old in BASE_CONFIG
    p = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    forbid_solve(monkeypatch)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    """An --out that names an existing file is a config error (exit 2)."""
    p = write_config(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["solve", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")


def test_channel_contrast_below_one_is_config_error(tmp_path, monkeypatch, capsys):
    """A channel contrast below 1 would invert the field; as for inclusions
    it is a config error (exit 2), raised before any solve."""
    text = BASE_CONFIG.replace("generator = inclusions", "generator = channels")
    p = write_config(tmp_path, text.replace("contrast = 1e3", "contrast = 0.5"))
    forbid_solve(monkeypatch)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "contrast must be >= 1" in capsys.readouterr().err


def test_sweep_contrast_of_a_file_field_is_config_error(tmp_path, monkeypatch, capsys):
    """A file fixes the contrast, so a contrast sweep over it is a config
    error (exit 2) before any solve, not identical rows."""
    p = file_config(tmp_path, np.ones((16, 16)))
    p.write_text(p.read_text() + "\n[sweep]\naxis = contrast\nvalues = 1e2, 1e3\n")
    forbid_solve(monkeypatch)
    assert cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "coeff.source = file" in capsys.readouterr().err


def test_negative_seed_is_config_error(tmp_path, monkeypatch, capsys):
    """--seed -1 on a file field, which draws no field from the seed, is a
    config error (exit 2) naming the seed, raised before the reference solve."""
    p = file_config(tmp_path, np.ones((16, 16)))
    out = tmp_path / "o"

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the seed was rejected")

    monkeypatch.setattr(fem, "reference_solve", no_solve)
    assert cli.main(["eig-diag", "--config", str(p), "--out", str(out), "--seed", "-1"]) == 2
    assert "seed (or --seed) must be >= 0, got -1" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_lod_without_count_gives_the_rows_of_lod_1():
    """build_bases takes ("lod", None) as LOD's one round, and so do the rows."""
    pair = grid.NestedPair(4, 16)
    field = coeff.gen_inclusions(pair, 0.12, 1e3, seed=3)
    runs = [cli.run_methods(pair, field, fem.DIFFUSION, 1, [("lod", n), ("lssi", 1)])[0]
            for n in (None, 1)]
    assert [[r.to_csv(with_timing=False) for r in rows] for rows in runs] == \
        [[r.to_csv(with_timing=False) for r in runs[1]]] * 2


def test_eig_diag_artifacts(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "diag"
    rc = cli.main(["eig-diag", "--config", str(p), "--out", str(out)])
    assert rc == 0
    angles = (out / "angles.csv").read_text().splitlines()
    assert angles[0] == "patch,method,round,angle,envelope,gap,fitted_rate"
    assert len(angles) > 1
    ib = (out / "interp_bound.csv").read_text().splitlines()
    assert ib[0] == "instance,lhs,rhs"
    for line in ib[1:]:
        _, lhs, rhs = line.split(",")
        assert float(lhs) <= float(rhs)
    # the Ritz values of patches 0-3, none above its patch's dense lambda_1
    rows = [line.split(",") for line in (out / "ritz.csv").read_text().splitlines()[1:]]
    assert sorted({int(patch) for patch, _, _ in rows}) == [0, 1, 2, 3]
    cfg = cli.RunConfig(p)
    pair = cfg.make_pair()
    system = fem.assemble(pair, cfg.make_field(pair), cfg.kind)
    patches = grid.build_all_patches(pair, cfg.m)
    systems = {k: s for nest in msbasis.patch_nests(patches)
               for k, s in zip(nest[0], msbasis.nest_systems(system, patches, nest))}
    for patch, _, value in rows:
        top = specdiag.local_eig(systems[int(patch)], 1).values[0]
        assert float(value) <= top * (1 + 1e-10)


def count_assemble_calls(monkeypatch):
    """Count the calls of fem.assemble (reference_solve looks it up at call time)."""
    calls = []
    assemble = fem.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble", counting)
    return calls


def test_run_methods_assembles_once(tmp_path, monkeypatch):
    """The patch systems are sliced out of the reference solve's system."""
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    field = cfg.make_field(pair)
    calls = count_assemble_calls(monkeypatch)
    cli.run_methods(pair, field, cfg.kind, cfg.m, cfg.methods)
    assert len(calls) == 1


def test_eig_diag_assembles_once(tmp_path, monkeypatch):
    cfg = cli.RunConfig(write_config(tmp_path))
    calls = count_assemble_calls(monkeypatch)
    assert cli.cmd_eig_diag(cfg, tmp_path) == 0
    assert len(calls) == 1


def count_factor_calls(monkeypatch):
    """Record the matrix order of every SpdFactor this process constructs."""
    init, calls = fem.SpdFactor.__init__, []

    def counting(self, A):
        calls.append(A.shape[0])
        init(self, A)

    monkeypatch.setattr(fem.SpdFactor, "__init__", counting)
    return calls


def test_eig_diag_factors_once_per_nest(tmp_path, monkeypatch):
    """eig-diag factors each nest's master once (besides the reference
    solve's global factor), and its patch systems, in patch order, are the
    ones each patch gets with a factor of its own."""
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    system = fem.assemble(pair, cfg.make_field(pair), fem.DIFFUSION)
    patches = grid.build_all_patches(pair, cfg.m)
    nests = msbasis.patch_nests(patches)

    with monkeypatch.context() as mp:
        force_workers(mp, 1)                  # the nests run in this process
        calls = count_factor_calls(mp)
        assert cli.cmd_eig_diag(cfg, tmp_path) == 0
    assert calls[0] == system.ndof
    assert len(calls[1:]) == len(nests) < len(patches)

    systems = {k: s for nest in nests
               for k, s in zip(nest[0], msbasis.nest_systems(system, patches, nest))}
    rng = np.random.default_rng(4)
    assert sorted(systems) == list(range(len(patches)))
    for k, p in enumerate(patches):
        nested = systems[k]
        own = localsolve.PatchSystem.build(system, p)
        assert nested.patch.center == p.center
        assert np.array_equal(nested.A.toarray(), own.A.toarray())
        assert np.array_equal(nested.M.toarray(), own.M.toarray())
        assert np.array_equal(nested.system.dofs, own.system.dofs)
        b = rng.standard_normal((own.ndof, 3))
        x = own.solve(b)
        assert np.abs(nested.solve(b) - x).max() <= 1e-12 * np.abs(x).max()


def test_eig_diag_parent_factors_the_global_system_alone(tmp_path, monkeypatch):
    """With two workers every patch factor of eig-diag is made in a worker:
    the parent constructs one SpdFactor, the reference solve's."""
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    ndof = fem.assemble(pair, cfg.make_field(pair), cfg.kind).ndof
    force_workers(monkeypatch, 2)
    calls = count_factor_calls(monkeypatch)
    assert cli.cmd_eig_diag(cfg, tmp_path) == 0
    assert calls == [ndof]


@pytest.mark.parametrize("kind", ["diffusion", "elasticity"])
def test_solve_csv_same_for_any_worker_count(tmp_path, monkeypatch, kind):
    """results.csv under --no-timing is byte-identical with one worker, two
    and the default."""
    p = write_config(tmp_path, BASE_CONFIG.replace("kind = diffusion", f"kind = {kind}"))
    csvs = []
    for workers in (1, 2, None):
        with monkeypatch.context() as mp:
            force_workers(mp, workers)
            out = tmp_path / f"w{workers}"
            assert cli.main(["solve", "--config", str(p), "--out", str(out),
                             "--no-timing"]) == 0
        csvs.append((out / "results.csv").read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("error", [NotSPD, DependentConstraints])
def test_worker_error_keeps_its_type(tmp_path, monkeypatch, capsys, error):
    """An error raised in a forked worker reaches the caller with its class
    and message, `mslab solve` exits 3 on it, and no worker is left."""
    kernel, calls = msbasis.lssi_kernel, []
    victim = 5

    def failing(sys, Phi):
        calls.append(sys.patch.center)
        if sys.patch.center == victim:
            raise error(f"patch {victim}: injected")
        yield from kernel(sys, Phi)

    monkeypatch.setattr(msbasis, "lssi_kernel", failing)
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    system = fem.assemble(pair, cfg.make_field(pair), fem.DIFFUSION)
    force_workers(monkeypatch, 2)
    with pytest.raises(error) as info:
        msbasis.build_bases(pair, system, 1, [("lssi", 1)])
    assert type(info.value) is error and str(info.value) == f"patch {victim}: injected"
    assert calls == []                        # the kernel ran in the workers alone
    assert multiprocessing.active_children() == []

    p = write_config(tmp_path)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert f"patch {victim}: injected" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", ["diffusion", "elasticity"])
def test_run_methods_same_for_one_and_two_workers(tmp_path, monkeypatch, kind):
    """The coarse phase gives the same rows, bit-identical solutions and the
    same coarse condition estimates in one worker and in two; the estimates
    are finite and >= 1."""
    cfg = cli.RunConfig(write_config(tmp_path, BASE_CONFIG.replace(
        "kind = diffusion", f"kind = {kind}")))
    pair = cfg.make_pair()
    field = cfg.make_field(pair)
    runs = []
    for workers in (1, 2):
        with monkeypatch.context() as mp:
            force_workers(mp, workers)
            runs.append(cli.run_methods(pair, field, cfg.kind, cfg.m, cfg.methods))
    (rows1, ctx1), (rows2, ctx2) = runs
    assert ([r.to_csv(with_timing=False) for r in rows1]
            == [r.to_csv(with_timing=False) for r in rows2])
    labels = [r.method for r in rows1]
    assert list(ctx1["solutions"]) == list(ctx2["solutions"]) == labels
    for lab in labels:
        assert np.array_equal(ctx1["solutions"][lab], ctx2["solutions"][lab]), lab
    assert ctx1["coarse"] == ctx2["coarse"]
    for row in rows1:
        coarse = ctx1["coarse"][row.method]
        assert coarse["dof"] == row.DoF
        assert np.isfinite(coarse["cond_estimate"]) and coarse["cond_estimate"] >= 1


def test_coarse_phase_is_one_forked_map(tmp_path, monkeypatch):
    """run_methods maps the coarse phase through forked_map once, one item
    per method, besides the basis build's own map over the nests."""
    forked, calls = msbasis.forked_map, []

    def counting(task, items):
        items = list(items)
        calls.append((getattr(task, "func", task), items))
        return forked(task, items)

    monkeypatch.setattr(msbasis, "forked_map", counting)
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    rows, _ = cli.run_methods(pair, cfg.make_field(pair), cfg.kind, cfg.m, cfg.methods)
    coarse = [items for task, items in calls if task is cli._coarse_solve]
    assert coarse == [list(range(len(cfg.methods)))]
    assert len(calls) == 2 and calls[0][0] is msbasis._nest_bases
    assert [r.method for r in rows] == ["lod", "lssi-1", "lksi-2"]


def test_coarse_worker_error_exits_3(tmp_path, monkeypatch, capsys):
    """A SingularCoarse raised in a coarse worker reaches `mslab solve` as
    exit 3 with its message, and no worker is left."""
    assemble, calls = msgalerkin.assemble_coarse, []

    def failing(system, b, basis):
        calls.append(basis.total_dofs)
        if basis.total_dofs < 4 * len(basis.patch_bases):    # lksi-2: 2 a patch
            raise SingularCoarse("lksi: injected")
        return assemble(system, b, basis)

    monkeypatch.setattr(msgalerkin, "assemble_coarse", failing)
    force_workers(monkeypatch, 2)
    p = write_config(tmp_path)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: lksi: injected" in capsys.readouterr().err
    assert calls == []                        # the coarse phase ran in the workers alone
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", ["diffusion", "elasticity"])
def test_eig_diag_csvs_same_for_any_worker_count(tmp_path, monkeypatch, kind):
    """angles.csv, interp_bound.csv and ritz.csv are byte-identical with one
    worker, two and the default."""
    p = write_config(tmp_path, BASE_CONFIG.replace("kind = diffusion", f"kind = {kind}"))
    names = ("angles.csv", "interp_bound.csv", "ritz.csv")
    csvs = []
    for workers in (1, 2, None):
        with monkeypatch.context() as mp:
            force_workers(mp, workers)
            out = tmp_path / f"w{workers}"
            assert cli.main(["eig-diag", "--config", str(p), "--out", str(out)]) == 0
        csvs.append([(out / name).read_bytes() for name in names])
    assert csvs[0] == csvs[1] == csvs[2]


def test_eig_diag_worker_error_keeps_its_type(tmp_path, monkeypatch, capsys):
    """An error raised in an eig-diag worker reaches the caller with its
    class and message, `mslab eig-diag` exits 3 on it, and no worker is left."""
    kernel, calls = msbasis.lssi_kernel, []
    victim = 5

    def failing(sys, Phi):
        calls.append(sys.patch.center)
        if sys.patch.center == victim:
            raise DependentConstraints(f"patch {victim}: injected")
        yield from kernel(sys, Phi)

    monkeypatch.setattr(msbasis, "lssi_kernel", failing)
    force_workers(monkeypatch, 2)
    p = write_config(tmp_path)
    with pytest.raises(DependentConstraints) as info:
        cli.cmd_eig_diag(cli.RunConfig(p), tmp_path)
    assert type(info.value) is DependentConstraints
    assert str(info.value) == f"patch {victim}: injected"
    assert calls == []                        # the kernel ran in the workers alone
    assert multiprocessing.active_children() == []

    assert cli.main(["eig-diag", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert f"patch {victim}: injected" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind", ["diffusion", "elasticity"])
def test_eig_diag_small_patches_are_a_config_error(tmp_path, monkeypatch, capsys, kind):
    """At h = H = 1/8, m = 1 every patch has fewer DOFs than the 4 nb + 1
    eigenpairs eig-diag takes: exit 2 with a config error, before the
    reference solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("reference_solve ran before the patch-size check")

    monkeypatch.setattr(fem, "reference_solve", no_solve)
    text = BASE_CONFIG.replace("kind = diffusion", f"kind = {kind}")
    p = write_config(tmp_path, text.replace("h = 16\nH = 4", "h = 8\nH = 8"))
    assert cli.main(["eig-diag", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: eig-diag needs more than "
                          f"{4 * fem.nblock(kind) + 1} DOFs per patch")


@pytest.mark.parametrize("kind", ["diffusion", "elasticity"])
def test_eig_diag_uncovered_grid_is_a_config_error(tmp_path, monkeypatch, capsys, kind):
    """At m = 0 the patches' partition of unity leaves fine nodes uncovered:
    exit 2 with a config error naming problem.m, before any assembly."""
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the cover was checked")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    text = BASE_CONFIG.replace("kind = diffusion", f"kind = {kind}")
    p = write_config(tmp_path, text.replace("m = 1", "m = 0"))
    assert cli.main(["eig-diag", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.m = 0 leaves the fine grid uncovered")


def test_write_pgm_orientation(tmp_path):
    v = np.zeros((3, 4))
    v[0, :] = 1.0                             # y = 0 row
    path = tmp_path / "t.pgm"
    cli.write_pgm(path, v)
    rows = path.read_text().splitlines()[3:]
    assert rows[-1].split() == ["255"] * 4    # bottom of image = y min
    assert rows[0].split() == ["0"] * 4


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_import_caps_blas_threads(preset, want):
    """Importing mslab sets one BLAS thread before numpy loads; a value the
    caller set wins.  Imported after numpy with no value set, it warns that
    the cap comes too late."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(mslab.__file__).resolve().parents[1])
    if preset is not None:
        env.update({k: preset for k in THREAD_VARS})
    for numpy_first in (False, True):
        code = ("import numpy; " if numpy_first else "") + (
            "import os; import mslab.cli; "
            "print(' '.join(os.environ[k] for k in %r))" % (THREAD_VARS,))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert res.stdout.split() == [want] * len(THREAD_VARS)
        warned = "import mslab first or set OPENBLAS_NUM_THREADS" in res.stderr
        assert warned == (numpy_first and preset is None), res.stderr
