"""Driver tests: config parsing, subcommands, artifacts, determinism, exit codes."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslab
from mslab import cli, coeff, fem, grid, localsolve, msbasis
from mslab.errors import DependentConstraints, NotSPD


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
], ids=["H-zero", "h-missing", "H-negative", "density-2", "contrast-half",
        "density-text", "sweep-value-text"])
def test_config_value_errors_exit_2(tmp_path, capsys, old, new):
    """A bad value in any section, or one the coefficient generator rejects,
    is a config error (exit 2) that writes no CSV."""
    assert old in BASE_CONFIG
    p = write_config(tmp_path, BASE_CONFIG.replace(old, new), "bad.ini")
    out = tmp_path / "out"
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
    assert field.n == 16
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
    assert (out / "ritz.csv").exists()


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


def test_eig_diag_factors_once_per_nest(tmp_path, monkeypatch):
    """eig-diag factors each nest's master once (besides the reference
    solve's global factor), and its patch systems, in patch order, are the
    ones each patch gets with a factor of its own."""
    cfg = cli.RunConfig(write_config(tmp_path))
    pair = cfg.make_pair()
    system = fem.assemble(pair, cfg.make_field(pair), fem.DIFFUSION)
    patches = grid.build_all_patches(pair, cfg.m)
    init, calls = fem.SpdFactor.__init__, []

    def counting(self, A):
        calls.append(A.shape[0])
        init(self, A)

    with monkeypatch.context() as mp:
        mp.setattr(fem.SpdFactor, "__init__", counting)
        assert cli.cmd_eig_diag(cfg, tmp_path) == 0
    assert calls[0] == system.ndof
    assert len(calls[1:]) == len(msbasis.patch_nests(patches)) < len(patches)

    systems = msbasis.build_patch_systems(pair, system, cfg.m)
    rng = np.random.default_rng(4)
    assert len(systems) == len(patches)
    for p, nested in zip(patches, systems):
        own = localsolve.PatchSystem.build(system, p)
        assert nested.patch.center == p.center
        assert np.array_equal(nested.A.toarray(), own.A.toarray())
        assert np.array_equal(nested.M.toarray(), own.M.toarray())
        assert np.array_equal(nested.system.dofs, own.system.dofs)
        b = rng.standard_normal((own.ndof, 3))
        x = own.solve(b)
        assert np.abs(nested.solve(b) - x).max() <= 1e-12 * np.abs(x).max()


def force_workers(monkeypatch, workers):
    """Make the CLI's basis builds use `workers` processes."""
    build = msbasis.build_bases
    monkeypatch.setattr(msbasis, "build_bases",
                        lambda *args, **kw: build(*args, **{"workers": workers, **kw}))


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
    with pytest.raises(error) as info:
        msbasis.build_bases(pair, system, 1, [("lssi", 1)], workers=2)
    assert type(info.value) is error and str(info.value) == f"patch {victim}: injected"
    assert calls == []                        # the kernel ran in the workers alone
    assert multiprocessing.active_children() == []

    force_workers(monkeypatch, 2)
    p = write_config(tmp_path)
    assert cli.main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
    assert f"patch {victim}: injected" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


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
