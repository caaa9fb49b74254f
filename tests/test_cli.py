import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kredux.cli import main


def run(args):
    return main(args)


def run_fresh(probe, *args, env=None):
    """Run ``python -c probe *args`` in a fresh interpreter that imports
    kredux from this tree, with the variables ``env`` added to its
    environment; returns the completed process, which must exit 0."""
    src = os.path.normpath(os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=src + os.pathsep + extra if extra else src)
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out


def on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def small_args(tmp_path, **over):
    base = {"testbed": "torus", "n": "32", "n_l": "129", "margin": "8",
            "out": str(tmp_path / "out")}
    base.update({k: str(v) for k, v in over.items()})
    return [f"{k}={v}" for k, v in base.items()]


def test_verify_passes_and_writes_reports(tmp_path):
    code = run(["verify"] + small_args(tmp_path))
    assert code == 0
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert "convention_gate.json" in names
    assert "dertau.json" in names
    assert "meta.json" in names
    with open(out / "dertau.json") as fh:
        rep = json.load(fh)
    assert rep["linf"] < 1e-5
    assert rep["slope"] is None or rep["slope"] >= 2.0
    with open(out / "meta.json") as fh:
        meta = json.load(fh)
    assert "config" in meta and "hashes" in meta


def test_no_command_imports_scipy(tmp_path):
    # kredux needs only numpy at run time, and scipy.interpolate would be most
    # of the start-up cost of a command; one fresh interpreter runs every
    # command, since this one has imported scipy already
    torus = ["testbed=torus", "n=16", "n_l=33", "margin=4"]
    radial = ["testbed=radial", "n=33", "n_l=33", "margin=4"]
    work = str(tmp_path)
    argvs = [["verify", *torus, "--out", f"{work}/verify"]]
    for kind in ("calabi", "pseudo_calabi", "kr", "nkr"):
        argvs.append(["flow", *torus, f"flow_kind={kind}", "flow_t_end=5e-4",
                      "flow_dt=0" if kind == "calabi" else "flow_dt=1e-4",
                      "--out", f"{work}/flow_{kind}"])
    # the radial Poisson solve, at the round metric's fixed point
    argvs.append(["flow", *radial, "flow_kind=pseudo_calabi",
                  "flow_amplitude=0", "flow_t_end=1e-3", "flow_dt=1e-4",
                  "--out", f"{work}/flow_radial"])
    argvs.append(["flow", *torus, "flow_kind=kr", "flow_t_end=0.1",
                  "flow_dt=5e-4", "flow_amplitude=0.01",
                  "--out", f"{work}/flow"])
    argvs.append(["lift", "n_l=65", "--in", f"{work}/flow",
                  "--out", f"{work}/lift"])
    for eq in ("geodesic", "calabi", "pseudo_calabi", "kr", "v_soliton"):
        argvs.append(["residual", "--eq", eq, "--in", f"{work}/lift",
                      "--out", f"{work}/res_{eq}"])
    argvs.append(["reduce", *torus, "tau=0.3", "fixture=cyl",
                  "--out", f"{work}/reduce"])
    argvs.append(["golden", *radial, "--out", f"{work}/golden"])
    # scipy is made unimportable before kredux loads, so any import of it
    # fails the run; the two library fiber quadratures run as well
    probe = ("import sys\n"
             "class NoScipy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name.split('.')[0] == 'scipy':\n"
             "            raise ImportError(f'{name} is blocked')\n"
             "sys.meta_path.insert(0, NoScipy())\n"
             "import kredux as kx\n"
             "from kredux.cli import main\n"
             f"codes = [main(argv) for argv in {argvs!r}]\n"
             "kx.potential_from_moment(\n"
             "    kx.singquot_moment(kx.golden_grid(65, 33)), 0.0)\n"
             "cyl = kx.cylinder(kx.torus_grid(n=12, n_l=33, margin=4))\n"
             "kx.reparametrize(cyl, lambda m: kx.kr_time_map(0.1, 0.1, 0.5, m))\n"
             "print(*codes, 'scipy' in sys.modules)\n")
    out = run_fresh(probe)
    *codes, scipy_loaded = out.stdout.splitlines()[-1].split()
    # verify at this resolution may report an identity failure (exit 2)
    assert codes[0] in ("0", "2")
    assert codes[1:] == ["0"] * (len(argvs) - 1), out.stderr
    assert scipy_loaded == "False"


def test_verify_reports_do_not_depend_on_blas_threads(tmp_path):
    # every torus derivative is a BLAS matrix product; one and two OpenBLAS
    # threads, each set before numpy loads, must write the same report bytes.
    # At n = 32 the axis-0 products (32 x 32 by 32 x 32 n_l, over 10^6
    # multiply-adds) are above OpenBLAS's default size for splitting a
    # product between threads, 4 x 65536.
    probe = ("import sys\n"
             "from kredux.cli import main\n"
             "print(main(sys.argv[1:]))\n")
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        proc = run_fresh(probe, "verify", "testbed=torus", "n=32", "n_l=33",
                         "margin=4", "seed=1", "--out", str(out),
                         env={"OPENBLAS_NUM_THREADS": threads})
        # verify at this resolution may report an identity failure (exit 2)
        assert proc.stdout.splitlines()[-1] in ("0", "2")
        reports[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "meta.json"}
        with open(out / "meta.json") as fh:
            reports[threads]["hashes"] = json.load(fh)["hashes"]
    assert len(reports["1"]) > 1
    assert reports["1"] == reports["2"]


def test_verify_low_resolution_reports_failure(tmp_path):
    # a 9-node fiber axis cannot meet the thresholds; the driver states the
    # first failing identity and exits with the identity-failure code
    code = run(["verify"] + small_args(tmp_path, n_l=9, margin=2))
    assert code == 2


def test_corrupt_config_is_input_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a config\n")
    assert run(["verify", "--config", str(bad)]) == 3


def test_unknown_override_is_input_error(tmp_path):
    assert run(["verify", "bogus_key=1"]) == 3


def test_overrides_are_taken_verbatim(tmp_path, monkeypatch, capsys):
    # a command-line override keeps a '#', which a config file reads as the
    # start of a comment
    monkeypatch.chdir(tmp_path)
    grid = ["testbed=radial", "n=33", "n_l=33"]
    assert run(["golden", *grid, "out=run#1"]) == 0
    assert (tmp_path / "run#1" / "golden.json").exists()
    assert not (tmp_path / "run").exists()
    with open(tmp_path / "run#1" / "meta.json") as fh:
        assert json.load(fh)["config"]["out"] == "run#1"
    assert run(["golden", *grid, "#n=5", "out=other"]) == 3
    assert "unknown configuration key '#n'" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("argv", [
    ["root_tol=1e-12"],
    ["--config", "{cfg}"],
])
def test_removed_key_is_input_error(tmp_path, capsys, argv):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("tau = 0.3\nroot_tol = 1e-12\n")
    argv = [a.format(cfg=cfg) for a in argv]
    code = run(["reduce", *argv, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "unknown configuration key 'root_tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_non_finite_level_is_input_error(tmp_path, capsys, tau):
    code = run(["reduce"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                       tau=tau))
    assert code == 3
    assert f"input error: level tau={tau} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("flow", "flow_t_end", "0"),
    ("flow", "flow_t_end", "-0.01"),
    ("flow", "flow_dt", "-1"),
    ("flow", "flow_t_end", "nan"),
    ("flow", "flow_amplitude", "nan"),
    ("verify", "dtau", "nan"),
    ("verify", "dtau", "0"),
    ("reduce", "l_u", "0"),
    ("reduce", "l_u", "-3"),
    ("reduce", "l_u", "1e300"),    # u^2 = e^2v overflows
    ("reduce", "l_min", "-1e300"),
    ("reduce", "l_u", "1e-300"),   # 1/h^2 overflows
    ("reduce", "l_u", "5e-324"),   # h is zero
])
def test_bad_run_number_is_input_error(tmp_path, capsys, command, key, value):
    code = run([command] + small_args(tmp_path, testbed="radial", n=16,
                                      n_l=33, margin=4, **{key: value}))
    assert code == 3
    assert f"input error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reduce_cylinder(tmp_path):
    code = run(["reduce"] + small_args(tmp_path, tau=0.7, fixture="cyl"))
    assert code == 0
    _, psitau, _ = _load(tmp_path / "out" / "psitau.csv")
    assert np.max(np.abs(psitau + 0.7 ** 2 / 4.0)) < 1e-9


def _load(path):
    from kredux.io import load_field

    return load_field(str(path))


@pytest.mark.parametrize("command,key,value", [
    ("flow", "flow_dt", "1e-300"),
    ("reduce", "tau", "100"),
    ("verify", "dtau", "10"),
    ("flow", "flow_amplitude", "10"),
])
def test_unusable_input_is_input_error(tmp_path, capsys, command, key, value):
    # a step count past MAX_FLOW_STEPS, a level or a shifted level outside
    # the moment map's range, a starting potential that is not Kahler
    code = run([command] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                      **{key: value}))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"input error: {key}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_flow_lift_residual_pipeline(tmp_path):
    flow_dir = str(tmp_path / "flow")
    code = run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.1,
                                     flow_dt=5e-4, flow_amplitude=0.01,
                                     out=flow_dir))
    assert code == 0
    lift_dir = str(tmp_path / "lift")
    code = run(["lift", "--in", flow_dir,
                "--out", lift_dir, "n_l=129"])
    assert code == 0
    with open(os.path.join(lift_dir, "lift_meta.json")) as fh:
        lift_meta = json.load(fh)
    # measured: every root of this inversion takes 2 Newton updates
    assert lift_meta["inversion_steps"] == 2
    assert lift_meta["max_inversion_residual"] <= 1e-13
    res_dir = str(tmp_path / "res")
    code = run(["residual", "--eq", "kr", "--in", lift_dir, "--out", res_dir])
    assert code == 0
    with open(os.path.join(res_dir, "residual_kr.json")) as fh:
        rep = json.load(fh)
    reduced = max(v for _, v in rep["reduced_linf_by_tau"])
    assert reduced < 1e-4


def test_one_level_lift_gives_every_residual(tmp_path):
    # a short flow whose lift admits a single level: h_canonical is then the
    # constant at that level, and every equation runs on the lift
    flow_dir, lift_dir = str(tmp_path / "flow"), str(tmp_path / "lift")
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.01,
                                     flow_amplitude=0.01, out=flow_dir)) == 0
    assert run(["lift", "--in", flow_dir, "--out", lift_dir, "n_l=65"]) == 0
    with open(os.path.join(lift_dir, "lift_meta.json")) as fh:
        assert len(json.load(fh)["admissible_taus"]) == 1
    for eq in ("calabi", "kr", "geodesic", "pseudo_calabi"):
        assert run(["residual", "--eq", eq, "--in", lift_dir,
                    "--out", str(tmp_path / f"res_{eq}")]) == 0, eq


def test_residual_fixture_commands(tmp_path):
    code = run(["residual", "--eq", "v_soliton"]
               + small_args(tmp_path, testbed="radial", n=257, n_l=33,
                            fixture="fscyl"))
    assert code == 0
    with open(tmp_path / "out" / "residual_v_soliton.json") as fh:
        rep = json.load(fh)
    assert rep["linf"] < 1e-7


def test_golden_command(tmp_path):
    code = run(["golden", "--out", str(tmp_path / "g")])
    assert code == 0
    with open(tmp_path / "g" / "golden.json") as fh:
        rep = json.load(fh)
    assert rep["passed"]
    assert rep["warnings"]


def test_golden_grid_ignores_the_fixture_key(tmp_path):
    # the golden quotient uses no fixture: its grid is the default golden
    # grid on the torus testbed and n x n_l on the radial one
    blocks = {}
    for testbed in ("torus", "radial"):
        for fixture in ("auto", "fscyl", "perturbed"):
            out = tmp_path / f"{testbed}_{fixture}"
            assert run(["golden", f"testbed={testbed}", "n=33", "n_l=33",
                        f"fixture={fixture}", "--out", str(out)]) == 0
            with open(out / "golden.json") as fh:
                blocks[testbed, fixture] = json.load(fh)["grid"]
    for testbed, n in (("torus", 257), ("radial", 33)):
        assert blocks[testbed, "auto"]["n_spatial"] == n
        assert blocks[testbed, "auto"] == blocks[testbed, "fscyl"] \
            == blocks[testbed, "perturbed"]


@pytest.mark.parametrize("kind, dt, t_end", [
    ("calabi", 1e-6, 4e-5), ("pseudo_calabi", 1e-4, 4e-3),
    ("kr", 1e-4, 4e-3), ("nkr", 1e-4, 4e-3)])
def test_flow_command_writes_a_uniform_path(tmp_path, kind, dt, t_end):
    from kredux.io import load_path

    out = tmp_path / "flow"
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind=kind, flow_dt=dt,
                                     flow_t_end=t_end, out=out)) == 0
    path = load_path(str(out))
    assert path.kind == kind
    assert path.ts[-1] == pytest.approx(t_end, rel=1e-12)
    gaps = np.diff(path.ts)
    assert len(gaps) >= 5
    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12 * gaps[0]


@pytest.mark.parametrize("kind", ["calabi", "pseudo_calabi", "kr"])
def test_flow_path_is_the_same_bits_on_one_and_two_blas_threads(tmp_path,
                                                                 kind):
    # the flows' mode transforms are matrix products, which BLAS may split
    # over threads; the written path must not depend on how many
    probe = ("import sys\n"
             "from kredux.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    args = ["flow", f"flow_kind={kind}", "n=32", "n_l=33", "margin=4",
            "flow_t_end=2e-4" if kind == "calabi" else "flow_t_end=4e-3"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_fresh(probe, *args, "--out", str(out),
                  env={"OPENBLAS_NUM_THREADS": threads})
        written.append((out / "path.csv").read_bytes())
    assert written[0] == written[1]


def test_flow_blowup_is_numerical_error(tmp_path, capsys):
    # the radial flows are explicit RK4; at flow_dt = 1e-5 (9.78e-6 once
    # fitted to the sample stride) this one goes non-finite on its third
    # step, to t = 2.93e-5: a numerical breakdown mid-run, not an input error
    code = run(["flow"] + small_args(tmp_path, testbed="radial", n=257,
                                     n_l=129, flow_kind="nkr", flow_dt=1e-5))
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical breakdown: flow step to t=" in err
    # past the first step, which ends at t = 9.78e-6, and far short of the
    # default first step, to t = 3.125e-4
    assert 1e-5 < float(err.split("t=")[1].split()[0]) < 1e-4


@pytest.mark.parametrize("argv", [
    ["--eq", "geodesic", "n=16", "n_l=9", "margin=5"],
    ["--eq", "kr", "n=16", "n_l=17", "margin=9"],
])
def test_margin_without_interior_is_input_error(tmp_path, capsys, argv):
    code = run(["residual", *argv, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    margin = argv[-1]
    assert f"input error: {margin} leaves no interior nodes" in err
    assert "fiber axis" in err


def test_lift_missing_input_is_input_error(tmp_path, capsys):
    code = run(["lift", "--in", str(tmp_path / "missing"),
                "--out", str(tmp_path / "lift")])
    assert code == 3
    assert "input error:" in capsys.readouterr().err
    assert not (tmp_path / "lift").exists()


def test_failing_lift_writes_nothing(tmp_path, monkeypatch):
    from kredux.errors import OutOfWindow

    flow_dir = str(tmp_path / "flow")
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.1,
                                     flow_dt=5e-4, flow_amplitude=0.01,
                                     out=flow_dir)) == 0

    def no_taus(*args, **kwargs):
        raise OutOfWindow("no admissible level")

    monkeypatch.setattr("kredux.cli.admissible_taus", no_taus)
    lift_dir = tmp_path / "lift"
    assert run(["lift", "--in", flow_dir, "--out", str(lift_dir),
                "n_l=129"]) == 4
    assert not lift_dir.exists()


def test_meta_records_only_its_own_command(tmp_path):
    # a second command in the same --out directory writes its own meta.json:
    # no keys of the first command's, and hashes of its own files only
    out = str(tmp_path / "d")
    grid = ["testbed=radial", "n=33", "n_l=33", "margin=4"]
    assert run(["reduce", *grid, "tau=0.2", "--out", out]) == 0
    assert run(["residual", "--eq", "v_soliton", *grid, "--out", out]) == 0
    with open(os.path.join(out, "meta.json")) as fh:
        meta = json.load(fh)
    assert sorted(meta) == ["config", "hashes"]
    assert sorted(meta["hashes"]) == ["residual_v_soliton.json"]
    from kredux.io import sha256_of

    assert meta["hashes"]["residual_v_soliton.json"] == sha256_of(
        os.path.join(out, "residual_v_soliton.json"))


@pytest.mark.parametrize("command", ["verify", "reduce", "flow", "lift",
                                     "residual", "golden"])
def test_meta_hashes_every_file_its_command_wrote(tmp_path, command):
    from kredux.io import sha256_of

    grid = ["n=16", "n_l=33", "margin=4"]
    flow = ["flow", *grid, "flow_kind=kr", "flow_amplitude=0.01",
            "flow_t_end=0.1", "flow_dt=5e-4"]
    flow_dir = str(tmp_path / "flow")
    if command == "lift":
        assert run([*flow, "--out", flow_dir]) == 0
    argv = {"verify": ["verify", *grid], "reduce": ["reduce", *grid],
            "flow": flow, "lift": ["lift", "n_l=65", "--in", flow_dir],
            "residual": ["residual", "--eq", "calabi", *grid],
            "golden": ["golden"]}[command]
    out = tmp_path / "out"
    # verify's gates fail at this resolution (exit 2); it writes every report
    assert run([*argv, "--out", str(out)]) in (0, 2)
    with open(out / "meta.json") as fh:
        hashes = json.load(fh)["hashes"]
    assert sorted(hashes) == sorted(p.name for p in out.iterdir()
                                    if p.name != "meta.json")
    for name, digest in hashes.items():
        assert digest == sha256_of(str(out / name))


def test_verify_outputs_bit_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["verify"] + small_args(tmp_path, out=a, seed=7)) == 0
    assert run(["verify"] + small_args(tmp_path, out=b, seed=7)) == 0
    from kredux.io import sha256_of

    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name == "meta.json":
            continue  # meta embeds the out directory path via the config
        assert sha256_of(os.path.join(a, name)) == sha256_of(os.path.join(b, name))


def test_static_equation_registry(tmp_path):
    import kredux as kx
    from kredux.statics import RESIDUALS

    assert list(RESIDUALS) == ["geodesic", "calabi", "pseudo_calabi", "kr",
                               "v_soliton"]
    with pytest.raises(SystemExit) as exc:
        run(["residual", "--eq", "heat", "--out", str(tmp_path)])
    assert exc.value.code == 2
    K = kx.cylinder(kx.torus_grid(n=16, n_l=33, margin=4))
    rep = RESIDUALS["kr"](K)
    assert rep.equation == "kr_unnormalized"
    assert rep.linf < 1e-7


def test_unconverged_inversion_is_numerical_error(tmp_path, monkeypatch,
                                                  capsys):
    import kredux.lift
    from kredux.interp import QuinticSpline

    flow_dir = str(tmp_path / "flow")
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.1,
                                     flow_dt=5e-4, flow_amplitude=0.01,
                                     out=flow_dir)) == 0
    # the shifted path passes the concavity check; the inversion's table is
    # built from its spline with one node's samples replaced by t^2, so the
    # velocity rises there
    splines = kredux.lift._TimeSplines

    def rising_at_one_node(spline):
        ys = spline(spline.x)
        ys[:, 0, 0] = spline.x ** 2
        return splines(QuinticSpline(spline.x, ys))

    monkeypatch.setattr(kredux.lift, "_TimeSplines", rising_at_one_node)
    lift_dir = tmp_path / "lift"
    assert run(["lift", "--in", flow_dir, "--out", str(lift_dir),
                "n_l=129"]) == 4
    assert "Legendre inversion" in capsys.readouterr().err
    assert not lift_dir.exists()


@pytest.fixture
def kahler_dir(tmp_path):
    import kredux as kx
    from kredux.io import save_kahler

    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    return save_kahler(kx.perturbed(grid, 0.02),
                       str(tmp_path / "lift"))


def _residual_with_lift_meta(kahler_dir, tmp_path, meta):
    with open(os.path.join(kahler_dir, "lift_meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh)
    return run(["residual", "--eq", "kr", "--in", kahler_dir,
                "--out", str(tmp_path / "res")])


@pytest.mark.parametrize("meta", [
    {"window": [-1.2, 1.2]},                # no admissible_taus key
    [0.1, -0.3],                            # not a JSON object
    {"admissible_taus": []},
    {"admissible_taus": [float("nan")]},
    {"admissible_taus": ["0.1", "-0.3"]},
    {"admissible_taus": [[0.1]]},
    {"admissible_taus": [True]},
    {"admissible_taus": 0.1},
])
def test_bad_lift_meta_is_input_error(kahler_dir, tmp_path, capsys, meta):
    assert _residual_with_lift_meta(kahler_dir, tmp_path, meta) == 3
    path = os.path.join(kahler_dir, "lift_meta.json")
    assert (f"input error: {path}: admissible_taus must be a non-empty list "
            "of finite numbers") in capsys.readouterr().err


def test_lift_meta_taus_reach_the_report(kahler_dir, tmp_path):
    meta = {"admissible_taus": [0.1, -0.3]}
    assert _residual_with_lift_meta(kahler_dir, tmp_path, meta) == 0
    with open(tmp_path / "res" / "residual_kr.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    assert [t for t, _ in rep["reduced_linf_by_tau"]] == [0.1, -0.3]


def test_truncated_path_is_input_error(tmp_path, capsys):
    flow_dir = tmp_path / "flow"
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.1,
                                     flow_dt=5e-4, flow_amplitude=0.01,
                                     out=str(flow_dir))) == 0
    csv = flow_dir / "path.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    code = run(["lift", "--in", str(flow_dir), "--out", str(tmp_path / "lift")])
    assert code == 3
    assert "rows" in capsys.readouterr().err


def test_benchmark_tracer_finds_every_layer(tmp_path):
    # the benchmark's tracer wraps the functions it names in LAYERS by name;
    # renaming or deleting one of them must fail here, not in a traced run
    import importlib.util

    import kredux.cli

    tracing = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    main_before = kredux.cli.main
    tracer = module.Tracer()
    try:
        tracer.install()
        assert kredux.cli.main(["reduce"] + small_args(
            tmp_path, n=16, n_l=33, margin=4, tau=0.3, fixture="cyl")) == 0
    finally:
        tracer.uninstall()
    assert kredux.cli.main is main_before
    names = {span[3] for span in tracer.spans}
    assert {"structure.assemble", "reduction.level_set",
            "reduction.reduced_potential", "interp.solve_decreasing",
            "io.dump_field"} <= names


# minor page faults of a second fresh-process run of RADIAL_RESIDUAL: 2,699
# under glibc's default allocator policy, 3-4 with main's policy pinned
SECOND_RUN_FAULTS = 500
RADIAL_RESIDUAL = ["residual", "--eq", "kr", "testbed=radial", "n=257",
                   "n_l=129", "fixture=fscyl"]
glibc_linux = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and on_glibc()),
    reason="the allocator policy is pinned on glibc only")


@glibc_linux
def test_main_reuses_freed_memory(tmp_path):
    probe = ("import resource, sys\n"
             "from kredux import cli\n"
             "for out in sys.argv[1:]:\n"
             "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
             f"    assert cli.main({RADIAL_RESIDUAL!r} + ['--out', out]) == 0\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    out = run_fresh(probe, str(tmp_path / "a"), str(tmp_path / "b"))
    faults = int(out.stdout.splitlines()[-1])
    assert faults < SECOND_RUN_FAULTS


@glibc_linux
def test_import_leaves_the_allocator_alone():
    # numpy itself imports ctypes, so the probe asks glibc: an allocation of
    # 24 MiB, kept alive, is mmapped under the default policy and comes from
    # the heap once the policy is pinned; only main pins it
    probe = ("import ctypes\n"
             "import numpy as np\n"
             "import kredux, kredux.cli\n"
             "class Mallinfo(ctypes.Structure):\n"
             "    _fields_ = [(k, ctypes.c_int) for k in ('arena', 'ordblks',\n"
             "        'smblks', 'hblks', 'hblkhd', 'usmblks', 'fsmblks',\n"
             "        'uordblks', 'fordblks', 'keepcost')]\n"
             "libc = ctypes.CDLL(None)\n"
             "libc.mallinfo.restype = Mallinfo\n"
             "kept = []\n"
             "def mmapped():\n"
             "    before = libc.mallinfo().hblks\n"
             "    kept.append(np.ones(3 << 20))\n"
             "    return libc.mallinfo().hblks - before\n"
             "print(mmapped(), end=' ')\n"
             "kredux.cli._pin_malloc_policy()\n"
             "print(mmapped())\n")
    assert run_fresh(probe).stdout.split() == ["1", "0"]


# -- random command lines -----------------------------------------------------
# Every command on a small grid, with overrides drawn from extreme, negative,
# non-finite and malformed spellings.  Resolutions are drawn only below their
# floor or malformed, and the flow's times only from fixed spellings, so that
# no draw asks for a large grid or a long run.

ODD_NUMBERS = ("0", "-1", "1e300", "-1e300", "1e-300", "5e-324", "nan",
               "inf", "-inf", "abc", "", "1,5", "0x10")
CLI_RUN_S = 10.0  # per command line; the slowest of the 300 takes 0.1 s


def _pairs(keys, values):
    return st.tuples(st.sampled_from(keys), st.sampled_from(values))


OVERRIDES = st.lists(st.one_of(
    st.tuples(st.sampled_from(("l_min", "l_max", "l_u", "dtau", "tau",
                               "flow_amplitude")),
              st.sampled_from(ODD_NUMBERS) | st.floats(-3.0, 3.0).map(repr)),
    _pairs(("flow_t_end", "flow_dt"), ODD_NUMBERS + ("1e-3", "1e-4")),
    _pairs(("n", "n_l"), ("8", "0", "-9", "9.5", "1e3", "nan", "x", "")),
    _pairs(("margin",), ("1", "-2", "0", "50", "2.5", "x")),
    _pairs(("seed",), ("-1", "7", "123456789012345678901234567890", "1.5",
                       "x")),
    _pairs(("testbed",), ("torus", "radial", "plane", "")),
    _pairs(("fixture",), ("auto", "cyl", "fscyl", "perturbed", "bogus")),
    _pairs(("flow_kind",), ("calabi", "pseudo_calabi", "kr", "nkr", "bogus")),
    _pairs(("bogus_key", "N"), ("1",)),
), max_size=3)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@example(command="flow", eq="kr", testbed="torus", n=9, n_l=9, margin=2,
         overrides=[("flow_t_end", "5e-324")])  # its default step is 0
@example(command="verify", eq="kr", testbed="torus", n=9, n_l=9, margin=2,
         overrides=[("l_min", "0"), ("l_max", "1e-300")])
@given(command=st.sampled_from(["verify", "reduce", "flow", "lift",
                                "residual", "golden"]),
       eq=st.sampled_from(["geodesic", "calabi", "pseudo_calabi", "kr",
                           "v_soliton"]),
       testbed=st.sampled_from(["torus", "radial"]),
       n=st.integers(9, 16), n_l=st.integers(9, 33),
       margin=st.integers(2, 4), overrides=OVERRIDES)
def test_random_command_lines_exit_with_a_documented_code(
        command, eq, testbed, n, n_l, margin, overrides):
    with tempfile.TemporaryDirectory() as work:
        argv = [command, f"testbed={testbed}", f"n={n}", f"n_l={n_l}",
                f"margin={margin}", "--out", os.path.join(work, "out")]
        if command == "lift":
            argv += ["--in", work]  # holds no path
        if command == "residual":
            argv += ["--eq", eq]
        argv += [f"{k}={v}" for k, v in overrides]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert elapsed < CLI_RUN_S, (argv, elapsed)
