import json
import os

import numpy as np
import pytest

import kredux as kx
from kredux.cli import main
from kredux.fields import ScalarFieldM
from kredux.statics import constant_profile


def test_lambda_mean_flat_and_round(tg, rg):
    assert kx.lambda_mean(kx.reference_sigma(tg)) == 0.0
    assert abs(kx.lambda_mean(kx.reference_sigma(rg)) - 2.0) < 1e-12


def test_lambda_mean_class_invariance(tg):
    sigma = kx.reference_sigma(tg)
    u = ScalarFieldM(tg, 0.02 * np.sin(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    assert abs(kx.lambda_mean(sigma + kx.ddc_m(u)) - kx.lambda_mean(sigma)) < 1e-8


def test_lambda_mean_class_invariance_radial(rg):
    sigma = kx.reference_sigma(rg)
    u = ScalarFieldM(rg, 0.02 * np.exp(-rg.v ** 2 / 2.0))
    assert abs(kx.lambda_mean(sigma + kx.ddc_m(u)) - 2.0) < 1e-8


def test_h_canonical_cylinders(cyl, fscyl):
    taus = np.linspace(-0.5, 0.5, 7)
    h1 = kx.h_canonical(cyl, taus)
    assert np.max(np.abs(h1(taus) - taus)) < 1e-8
    h2 = kx.h_canonical(fscyl, taus)
    assert np.max(np.abs(h2(taus) - (2.0 + taus))) < 1e-8


def test_h_canonical_gauge_invariance(tg, cyl):
    taus = np.linspace(-0.4, 0.4, 5)
    u = ScalarFieldM(tg, 0.01 * np.cos(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    K2 = kx.gauge(cyl, u, 0.3, 0.0)
    h1 = kx.h_canonical(cyl, taus)
    h2 = kx.h_canonical(K2, taus)
    assert np.max(np.abs(h1(taus) - h2(taus))) < 1e-9


def test_h_canonical_takes_sorted_distinct_levels(cyl):
    # the spline is built on the sorted, distinct levels; a single level
    # gives the constant at its value
    taus = np.linspace(-0.4, 0.4, 5)
    h = kx.h_canonical(cyl, taus)
    assert np.array_equal(kx.h_canonical(cyl, taus[::-1])(taus), h(taus))
    assert np.array_equal(kx.h_canonical(cyl, np.repeat(taus, 2))(taus),
                          h(taus))
    one = kx.h_canonical(cyl, taus[3:4])
    assert np.all(one(taus) == one(taus[3]))
    assert abs(one(taus[3]) - h(taus[3])) < 1e-12


# -- static residuals on the closed-form fixtures ------------------------------


def test_geodesic_fixture_and_control(cyl, fscyl):
    assert kx.residual_geodesic(cyl, constant_profile(1.0)).linf < 1e-8
    assert kx.residual_geodesic(fscyl, constant_profile(1.0)).linf < 1e-8
    rep = kx.residual_geodesic(cyl, constant_profile(0.0))
    assert rep.linf > 0.1 * rep.extra["dominant"]
    # spatial constancy of the reduced combination at every level
    assert kx.residual_geodesic(cyl, constant_profile(1.0)).reduced_linf < 1e-8


def test_calabi_fixture_and_control(cyl, fscyl):
    rep = kx.residual_calabi(cyl, lambda m: m)
    assert rep.linf < 1e-8
    assert rep.reduced_linf < 1e-8
    lam = kx.lambda_mean(fscyl.sigma)
    rep2 = kx.residual_calabi(fscyl, lambda m: lam + m)
    assert rep2.linf < 1e-8
    ctrl = kx.residual_calabi(cyl, constant_profile(0.0))
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


def test_pseudo_calabi_fixture_and_control(cyl, fscyl, perturbed):
    assert kx.residual_pseudo_calabi(cyl).linf < 1e-8
    assert kx.residual_pseudo_calabi(fscyl).linf < 1e-8
    assert kx.residual_pseudo_calabi(fscyl).reduced_linf < 1e-8
    ctrl = kx.residual_pseudo_calabi(perturbed)
    assert ctrl.linf > 0.1 * min(1.0, ctrl.extra["dominant"])


def test_kr_fixture_and_control(cyl, fscyl):
    assert kx.residual_kr(cyl).linf < 1e-8
    assert kx.residual_kr(cyl).reduced_linf < 1e-8
    ctrl = kx.residual_kr(fscyl)
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


def test_v_soliton_fixture_and_controls(cyl, fscyl):
    lam = kx.lambda_mean(fscyl.sigma)
    rep = kx.residual_v_soliton(
        fscyl, lambda m: lam * m * m / 4.0)
    assert rep.linf < 1e-7
    rep2 = kx.residual_v_soliton(cyl, lambda m: 0.3 * m)
    assert rep2.linf < 1e-8
    ctrl = kx.residual_v_soliton(fscyl, constant_profile(0.0))
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


def test_lambda_taken_once_per_structure(monkeypatch):
    from kredux import statics

    K = kx.cylinder(kx.radial_grid(65, 33, margin=4))
    calls = []

    def counting(omega):
        calls.append(omega is K.sigma)
        return kx.scal_m(omega)

    monkeypatch.setattr(statics, "scal_m", counting)
    first = statics.RESIDUALS["v_soliton"](K).to_dict()
    assert calls == [True]
    # a second equation on the same structure reads the kept value; its
    # reduced sweep takes scal_m of the reduced metrics only
    statics.residual_pseudo_calabi(K)
    assert calls.count(True) == 1
    assert statics.RESIDUALS["v_soliton"](K).to_dict() == first
    assert first["extra"]["lambda"] == kx.lambda_mean(K.sigma)


# -- reparametrization -----------------------------------------------------------


def test_reparametrize_identity(perturbed):
    K2 = kx.reparametrize(perturbed, lambda m: m)
    assert np.max(np.abs(K2.mu.values - perturbed.mu.values)) < 1e-12
    assert np.max(np.abs(K2.phi.values - perturbed.phi.values)) < 1e-13


def test_reparametrize_shift(cyl):
    K2 = kx.reparametrize(cyl, lambda m: m + 0.25)
    assert np.max(np.abs(K2.mu.values - (cyl.mu.values + 0.25))) < 1e-11
    psi = K2.phi.values - cyl.phi.values
    expect = -0.125 * cyl.grid.l + 0.125 * cyl.grid.l_max
    assert np.max(np.abs(psi - expect)) < 1e-11


def test_reparametrize_exponential_map(cyl, perturbed):
    a, b, lam = 0.1, 0.1, 0.5
    fmap = lambda m: (a + b * np.exp(lam * m)) / lam  # noqa: E731
    K2 = kx.reparametrize(cyl, fmap)
    assert np.max(np.abs(K2.mu.values - fmap(cyl.mu.values))) < 1e-9
    K3 = kx.reparametrize(perturbed, fmap)
    assert np.max(np.abs(K3.mu.values - fmap(perturbed.mu.values))) < 1e-8


def test_reparametrize_respects_time_map(cyl):
    a, b, lam = 0.0, 2.0, 2.0
    assert abs(kx.kr_time_map(a, b, lam, 1.0) - np.exp(2.0)) < 1e-14
    assert kx.kr_time_map(a, b, lam, 0.0) == (a + b) / lam
    with pytest.raises(ValueError):
        kx.kr_time_map(a, b, 0.0, 1.0)
    fmap = lambda m: kx.kr_time_map(0.1, 0.1, 0.5, m)  # noqa: E731
    K2 = kx.reparametrize(cyl, fmap)
    assert np.max(np.abs(K2.mu.values - fmap(cyl.mu.values))) < 1e-9


def test_h_canonical_reparametrization_covariance(cyl):
    # new canonical profile is the old one through the inverse level map
    k = 0.2
    K2 = kx.reparametrize(cyl, lambda m: m + k)
    taus = np.linspace(-0.3, 0.3, 5)
    h2 = kx.h_canonical(K2, taus + k)
    h1 = kx.h_canonical(cyl, taus)
    assert np.max(np.abs(h2(taus + k) - h1(taus))) < 1e-8


# Reports of `kredux residual --eq E`, written when the level solve began to
# bracket each root in one fiber segment and polish it from the segment's
# secant point; the calabi `l2` (its level profile) and the lifted kr report
# were rewritten when the time spline became the not-a-knot quintic, and the
# lifted kr report again when the flows' state moved from the rfft2 plane to
# the grid's real Fourier modes (its lift window moved at 1e-13 relative),
# and when a flow's sample 0 became the psi its first stage evaluates
# (psi0 on the modes and back; the window moved at 8e-14 relative).
# The numbers must not move.
RESIDUAL_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "residuals")
EQUATIONS = ("geodesic", "calabi", "pseudo_calabi", "kr", "v_soliton")
REL = 1e-13


def _assert_report_matches(got, want):
    def close(a, b):
        return abs(a - b) <= REL * abs(b)

    assert got["equation"] == want["equation"]
    assert got["grid"] == want["grid"]
    for key in ("linf", "l2"):
        assert close(got[key], want[key]), (key, got[key], want[key])
    assert sorted(got["extra"]) == sorted(want["extra"])
    for key, value in want["extra"].items():
        assert close(got["extra"][key], value), (key, got["extra"][key], value)
    pairs = got["reduced_linf_by_tau"]
    assert len(pairs) == len(want["reduced_linf_by_tau"])
    for (t, r), (wt, wr) in zip(pairs, want["reduced_linf_by_tau"]):
        assert close(t, wt) and close(r, wr), (t, r, wt, wr)


def _check_residual_dir(out, golden_dir, eq):
    with open(os.path.join(out, f"residual_{eq}.json"), encoding="utf-8") as fh:
        got = json.load(fh)
    with open(os.path.join(golden_dir, f"residual_{eq}.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)
    _assert_report_matches(got, want)


@pytest.mark.parametrize("testbed,grid_args", [
    ("torus", ["testbed=torus", "n=16", "n_l=33", "margin=4"]),
    ("radial", ["testbed=radial", "n=65", "n_l=33", "margin=4"]),
])
def test_residual_reports_match_golden(tmp_path, testbed, grid_args):
    for eq in EQUATIONS:
        out = str(tmp_path / eq)
        assert main(["residual", "--eq", eq, "fixture=perturbed", *grid_args,
                     "--out", out]) == 0
        _check_residual_dir(out, os.path.join(RESIDUAL_GOLDEN, testbed), eq)


def test_lifted_kr_residual_matches_golden(tmp_path):
    work = str(tmp_path)
    assert main(["flow", "flow_kind=kr", "n=16", "flow_t_end=0.1",
                 "flow_dt=5e-4", "flow_amplitude=0.01",
                 "--out", f"{work}/flow"]) == 0
    assert main(["lift", "n_l=65", "--in", f"{work}/flow",
                 "--out", f"{work}/lift"]) == 0
    assert main(["residual", "--eq", "kr", "--in", f"{work}/lift",
                 "--out", f"{work}/res"]) == 0
    _check_residual_dir(f"{work}/res", os.path.join(RESIDUAL_GOLDEN, "lift_kr"),
                        "kr")
