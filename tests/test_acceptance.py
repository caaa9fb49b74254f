"""Acceptance criteria, one test per criterion, with a printed verdict line.

Resolutions: torus 32 x 32 x 129, radial 257 x 129, unless a criterion needs
the convention-gate grid (fiber 65).  Every tolerance is asserted exactly as
stated; the printed line carries the measured numbers.
"""

import numpy as np
import pytest

import kredux as kx
from kredux.fields import ScalarFieldM, ScalarFieldP, interior_norms
from kredux.statics import constant_profile
from kredux.verify import (battery_with_slopes, closed_form_reductions,
                           convention_gate, gauge_invariance)


def verdict(num, name, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_convention_gate():
    rep = convention_gate(kx.torus_grid(n=32, n_l=65))
    ok = rep.linf < 1e-8 and rep.extra["min_vv"] > 0
    verdict(1, "convention gate", ok,
            f"max residual {rep.linf:.2e} (< 1e-8), "
            f"contraction min {rep.extra['min_vv']:.3f} > 0")


def test_c02_gauge_invariance(perturbed):
    rep = gauge_invariance(perturbed)
    ok = rep.linf < 1e-10
    verdict(2, "gauge invariance", ok, f"worst gap {rep.linf:.2e} (< 1e-10)")


def test_c03_identity_battery(perturbed):
    reports = battery_with_slopes(perturbed, seed=1, dtau=1e-4)
    worst = max(r.linf for r in reports.values())
    slopes = {k: r.slope for k, r in reports.items()}
    ok = worst < 1e-5 and all(s >= 2.0 for s in slopes.values())
    verdict(3, "reduced-identity battery", ok,
            f"worst linf {worst:.2e} (< 1e-5), "
            f"min order {min(slopes.values()):.2f} (>= 2)")


def test_c04_closed_form_reductions(tg):
    rep = closed_form_reductions(tg)
    ok = rep.linf < 1e-9
    verdict(4, "cylinder closed forms", ok, f"worst gap {rep.linf:.2e} (< 1e-9)")


def test_c05_static_fixtures(cyl, fscyl):
    lam = kx.lambda_mean(fscyl.sigma)
    taus = kx.default_taus(cyl)
    h_can = kx.h_canonical(cyl, taus)
    vals = {
        "geodesic(cyl, h=1)": (kx.residual_geodesic(cyl, constant_profile(1.0)).linf, 1e-8),
        "calabi(cyl, h=tau)": (kx.residual_calabi(cyl, lambda m: m).linf, 1e-8),
        "h_canonical(cyl)=tau": (float(np.max(np.abs(h_can(taus) - taus))), 1e-8),
        "pseudo(cyl)": (kx.residual_pseudo_calabi(cyl).linf, 1e-8),
        "pseudo(fscyl)": (kx.residual_pseudo_calabi(fscyl).linf, 1e-8),
        "kr(cyl)": (kx.residual_kr(cyl).linf, 1e-8),
        "v_soliton(fscyl)": (kx.residual_v_soliton(
            fscyl, lambda m: lam * m * m / 4.0).linf, 1e-7),
    }
    controls = [
        kx.residual_geodesic(cyl, constant_profile(0.0)),
        kx.residual_calabi(cyl, constant_profile(0.0)),
        kx.residual_kr(fscyl),
        kx.residual_v_soliton(fscyl, constant_profile(0.0)),
    ]
    ok = all(v < tol for v, tol in vals.values())
    ctrl_ok = all(r.linf > 0.1 * r.extra["dominant"] for r in controls)
    detail = ", ".join(f"{k} {v:.1e}" for k, (v, _) in vals.items())
    verdict(5, "static fixtures", ok and ctrl_ok,
            detail + f"; negative controls >= 0.1 x dominant: {ctrl_ok}")


def test_c06_flow_stationarity_and_monotonicity(tg, rg, calabi_path):
    sigma_t = kx.reference_sigma(tg)
    sigma_r = kx.reference_sigma(rg)
    zero_t = np.zeros(tg.spatial_shape)
    zero_r = np.zeros(rg.spatial_shape)
    drifts = [
        np.max(np.abs(kx.calabi_integrate(zero_t, sigma_t, 0.01, dt=1e-4).psis[-1])),
        np.max(np.abs(kx.kr_integrate(zero_t, sigma_t, 0.01, dt=1e-4).psis[-1])),
        np.max(np.abs(kx.pseudo_calabi_integrate(zero_t, sigma_t, 0.01, dt=1e-4).psis[-1])),
        np.max(np.abs(kx.calabi_integrate(zero_r, sigma_r, 0.01, dt=1e-4).psis[-1])),
        np.max(np.abs(kx.kr_integrate(zero_r, sigma_r, 0.01, dt=1e-5,
                                      normalized=True).psis[-1])),
    ]
    es = [kx.calabi_energy(calabi_path.sigma, calabi_path.psis[k])
          for k in range(calabi_path.n_samples)]
    energy_ok = all(es[k + 1] <= es[k] + 1e-12 * (1 + es[k])
                    for k in range(len(es) - 1))

    kr = kx.kr_integrate(
        0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial)),
        sigma_t, 0.01, dt=2e-4, save_count=51)
    from kredux.curvature import ricci_m

    rics = [np.max(np.abs(ricci_m(kr.metric_at(k)).h))
            for k in range(kr.n_samples)]
    ric_ok = all(rics[k + 1] <= rics[k] + 1e-12 for k in range(len(rics) - 1))
    ones = np.ones(tg.spatial_shape)
    vols = [kx.integrate_m(ones, kr.metric_at(k)) for k in range(kr.n_samples)]
    vol_drift = max(abs(v - vols[0]) for v in vols)

    ok = max(drifts) < 1e-7 and energy_ok and ric_ok and vol_drift < 1e-6
    verdict(6, "flow stationarity/monotonicity", ok,
            f"max stationary drift {max(drifts):.1e} (< 1e-7), "
            f"flow energy non-increasing: {energy_ok}, "
            f"Ricci sup decreasing: {ric_ok}, volume drift {vol_drift:.1e}")


def test_c07_lift_round_trip(tg):
    from kredux.flows import FlowPath

    u = 0.05 * np.sin(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    ts = np.linspace(0, 0.5, 41)
    path = FlowPath(tg, kx.reference_sigma(tg), "linear", ts,
                    np.array([t * u for t in ts]))
    shifted, a_t = kx.concavity_shift(path)
    d2max = float(np.max(shifted.time_derivative(2)))
    lift = kx.legendre_lift(shifted)
    taus = kx.admissible_taus(shifted, lift)
    rep = kx.roundtrip_check(shifted, lift, taus)
    ok = rep.linf < 1e-6 and d2max <= -2 + 1e-9 and lift.criterion_agrees
    verdict(7, "Legendre lift round trip", ok,
            f"reduction gap {rep.linf:.2e} (< 1e-6), shifted concavity "
            f"{d2max:.9f} (<= -2+1e-9), positivity criterion agrees: "
            f"{lift.criterion_agrees}")


def test_c08_reduced_equivalences_on_lifted_flows(calabi_lift, kr_lift, pc_lift):
    sh_c, _, lift_c, taus_c = calabi_lift
    var_c = kx.residual_calabi(lift_c.data, kx.h_canonical(lift_c.data, taus_c),
                               taus=taus_c).reduced_linf
    sh_k, _, lift_k, taus_k = kr_lift
    var_k = kx.residual_kr(lift_k.data, taus=taus_k).reduced_linf
    sh_p, _, lift_p, taus_p = pc_lift
    var_p = kx.residual_pseudo_calabi(lift_p.data, taus=taus_p).reduced_linf
    ok = var_c < 1e-5 and var_k < 1e-4 and var_p < 1e-5
    verdict(8, "static/flow equivalences on lifts", ok,
            f"scalar-flow constancy {var_c:.2e} (< 1e-5), "
            f"Ricci-flow identity {var_k:.2e} (< 1e-4), "
            f"coupled-flow identity {var_p:.2e} (< 1e-5)")


def test_c09_reparametrization(cyl):
    fmap = lambda m: kx.kr_time_map(0.1, 0.1, 0.5, m)  # noqa: E731
    K2 = kx.reparametrize(cyl, fmap)
    gap = float(np.max(np.abs(K2.mu.values - fmap(cyl.mu.values))))
    exact = abs(kx.kr_time_map(0.0, 2.0, 2.0, 1.0) - np.exp(2.0))
    ok = gap < 1e-9 and exact == 0.0
    verdict(9, "moment-map reparametrization", ok,
            f"new moment map vs f(mu) {gap:.2e} (< 1e-9), "
            f"time map at (0,2,2;1) exact: {exact == 0.0}")


def test_c10_golden_quotient():
    report = kx.run_golden()
    checks = report["checks"]
    spot = max(abs(checks["mu_at_u0_s1"]["value"] + 2.0),
               abs(checks["mu_at_u1_s1"]["value"] + 4.0 / 3.0))
    ok = report["passed"] and spot < 1e-12 and len(report["warnings"]) == 1
    verdict(10, "singular-quotient golden case", ok,
            f"spot values {spot:.1e} (< 1e-12), negativity/monotonicity/"
            f"coverage checks: {report['passed']}, pole-label note emitted "
            f"as warning: {len(report['warnings']) == 1}")
