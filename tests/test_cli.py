import json
import os

import numpy as np
import pytest

from kredux.cli import main


def run(args):
    return main(args)


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


def test_reduce_cylinder(tmp_path):
    code = run(["reduce"] + small_args(tmp_path, tau=0.7, fixture="cyl"))
    assert code == 0
    _, psitau, _ = _load(tmp_path / "out" / "psitau.csv")
    assert np.max(np.abs(psitau + 0.7 ** 2 / 4.0)) < 1e-9


def _load(path):
    from kredux.io import load_field

    return load_field(str(path))


def test_reduce_out_of_range_is_numerical_error(tmp_path):
    code = run(["reduce"] + small_args(tmp_path, tau=50.0))
    assert code == 4


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
    res_dir = str(tmp_path / "res")
    code = run(["residual", "--eq", "kr", "--in", lift_dir, "--out", res_dir])
    assert code == 0
    with open(os.path.join(res_dir, "residual_kr.json")) as fh:
        rep = json.load(fh)
    reduced = max(v for _, v in rep["reduced_linf_by_tau"])
    assert reduced < 1e-4


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


def test_flow_blowup_is_numerical_error(tmp_path):
    # this flow diverges near t = 1.6e-4 on this grid; the step that goes
    # non-finite is a numerical breakdown, not an input error
    code = run(["flow"] + small_args(tmp_path, testbed="radial", n=257,
                                     n_l=129, flow_kind="nkr"))
    assert code == 4


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
    K = kx.flat_cylinder(kx.torus_grid(n=16, n_l=33, margin=4))
    rep = RESIDUALS["kr"](K)
    assert rep.equation == "kr_unnormalized"
    assert rep.linf < 1e-7


def test_unconverged_inversion_is_numerical_error(tmp_path, monkeypatch):
    from kredux.lift import _TimeSplines

    flow_dir = str(tmp_path / "flow")
    assert run(["flow"] + small_args(tmp_path, n=16, n_l=33, margin=4,
                                     flow_kind="kr", flow_t_end=0.1,
                                     flow_dt=5e-4, flow_amplitude=0.01,
                                     out=flow_dir)) == 0
    solve = _TimeSplines.solve_velocity
    monkeypatch.setattr(_TimeSplines, "solve_velocity",
                        lambda self, target: solve(self, target, max_iter=1))
    lift_dir = tmp_path / "lift"
    assert run(["lift", "--in", flow_dir, "--out", str(lift_dir),
                "n_l=129"]) == 4
    assert not lift_dir.exists()


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
