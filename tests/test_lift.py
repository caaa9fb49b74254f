import numpy as np
import pytest
from scipy.interpolate import make_interp_spline
from scipy.optimize import brentq

import kredux as kx
from kredux.errors import (HypothesisViolated, NonConcave, NotConverged,
                           OutOfWindow)
from kredux.flows import FlowPath
from kredux.interp import QuinticSpline
from kredux.lift import _TimeSplines
from kredux.statics import constant_profile


def linear_path(grid, amplitude=0.05, T=0.5, n=41):
    sigma = kx.reference_sigma(grid)
    u = amplitude * np.sin(2 * np.pi * grid.x1)[:, None] * np.ones((1, grid.n_spatial))
    ts = np.linspace(0, T, n)
    psis = np.array([t * u for t in ts])
    return FlowPath(grid, sigma, "linear", ts, psis), u


# -- concavity shift -----------------------------------------------------------


def test_shift_of_constant_path(tg):
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 1, 21)
    psis = np.zeros((21,) + tg.spatial_shape)
    shifted, a = kx.concavity_shift(FlowPath(tg, sigma, "c", ts, psis))
    assert np.max(np.abs(a + ts * ts)) < 1e-8
    d2 = shifted.time_derivative(2)
    assert np.max(d2) <= -2.0 + 1e-9
    assert np.max(np.abs(d2 + 2.0)) < 1e-7


def test_shift_of_linear_path(tg):
    path, u = linear_path(tg)
    shifted, a = kx.concavity_shift(path)
    assert np.max(np.abs(a + path.ts ** 2)) < 1e-8
    assert np.max(shifted.time_derivative(2)) <= -2.0 + 1e-9


def test_shift_of_convex_path(tg):
    sigma = kx.reference_sigma(tg)
    u = 0.05 * (1 + np.cos(2 * np.pi * tg.x1))[:, None] * np.ones((1, tg.n_spatial))
    ts = np.linspace(0, 0.4, 33)
    psis = np.array([t * t * u for t in ts])
    shifted, a = kx.concavity_shift(FlowPath(tg, sigma, "q", ts, psis))
    d2 = shifted.time_derivative(2)
    assert np.max(d2) <= -2.0 + 1e-9
    # sup psi'' = 2 max(u) = 0.2, so a'' = -2.2 and the worst node sits at -2
    assert abs(np.max(d2) + 2.0) < 1e-6


def test_shift_needs_enough_samples(tg):
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 1, 4)
    with pytest.raises(ValueError):
        kx.concavity_shift(FlowPath(tg, sigma, "c", ts,
                                    np.zeros((4,) + tg.spatial_shape)))


# -- fiberwise inversion ---------------------------------------------------------


def test_lift_of_explicit_concave_path(tg):
    # psi_t = -t^2 is already strictly concave; reductions recover it exactly
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 0.5, 41)
    psis = np.array([-t * t * np.ones(tg.spatial_shape) for t in ts])
    path = FlowPath(tg, sigma, "sq", ts, psis)
    lift = kx.legendre_lift(path)
    taus = kx.admissible_taus(path, lift)
    rep = kx.roundtrip_check(path, lift, taus)
    assert rep.linf < 1e-10
    assert rep.extra["form_gap"] < 1e-10
    assert lift.max_inversion_residual < 1e-10


def test_lift_linear_path_criterion(tg):
    path, u = linear_path(tg)
    shifted, a = kx.concavity_shift(path)
    lift = kx.legendre_lift(shifted)
    assert lift.criterion_agrees
    assert lift.data.certificate.positive
    taus = kx.admissible_taus(shifted, lift)
    rep = kx.roundtrip_check(shifted, lift, taus)
    assert rep.linf < 1e-6
    # reductions recover t*u(x) + a_t up to a spatial constant
    for tau in taus[:3]:
        red = kx.reduced_potential(lift.data, tau)
        gap = red.psi_tau.values - tau * u
        assert np.max(np.abs(gap - np.mean(gap))) < 1e-6


def test_lift_constant_path_is_product(tg):
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 0.5, 41)
    psis = np.zeros((41,) + tg.spatial_shape)
    shifted, a = kx.concavity_shift(FlowPath(tg, sigma, "c", ts, psis))
    lift = kx.legendre_lift(shifted)
    taus = kx.admissible_taus(shifted, lift)
    for tau in taus:
        red = kx.reduced_potential(lift.data, tau)
        assert np.max(np.abs(red.omega_tau.h - sigma.h)) < 1e-8


def test_lift_rejects_nonconcave(tg):
    path, u = linear_path(tg)
    with pytest.raises(NonConcave):
        kx.legendre_lift(path)


def test_no_admissible_level_is_out_of_window(tg):
    # over t in [0, 1e-3] the shifted velocity u - 2t hardly moves, so every
    # sample's band 2 [min, max] spans the window, capped 5 % inside it
    path, _ = linear_path(tg, T=1e-3, n=9)
    shifted, _ = kx.concavity_shift(path)
    lift = kx.legendre_lift(shifted, n_l=33)
    with pytest.raises(OutOfWindow, match="no sample time"):
        kx.admissible_taus(shifted, lift)


def test_lift_monotone_inversion(calabi_lift):
    shifted, a_t, lift, taus = calabi_lift
    dmu = lift.data.grid.d_l(lift.mu_solved.values, 1)
    assert np.max(dmu) < 0.0
    assert np.max(lift.data.grid.d_l(lift.data.mu.values, 1)) < 0.0


def test_lift_positivity_criterion_agreement(calabi_lift, kr_lift, pc_lift):
    for shifted, a_t, lift, taus in (calabi_lift, kr_lift, pc_lift):
        assert lift.criterion_agrees
        assert lift.concavity_max < 0.0


def test_lifted_flow_roundtrips(calabi_lift, kr_lift, pc_lift):
    for shifted, a_t, lift, taus in (calabi_lift, kr_lift, pc_lift):
        rep = kx.roundtrip_check(shifted, lift, taus)
        assert rep.linf < 1e-6


def test_reduced_equivalence_on_lifted_calabi(calabi_lift):
    shifted, a_t, lift, taus = calabi_lift
    h = kx.h_canonical(lift.data, taus)
    rep = kx.residual_calabi(lift.data, h, taus=taus)
    assert rep.reduced_linf < 1e-5


def test_reduced_equivalence_on_lifted_kr(kr_lift):
    shifted, a_t, lift, taus = kr_lift
    rep = kx.residual_kr(lift.data, taus=taus)
    assert rep.reduced_linf < 1e-4


def test_reduced_equivalence_on_lifted_pseudo(pc_lift):
    shifted, a_t, lift, taus = pc_lift
    rep = kx.residual_pseudo_calabi(lift.data, taus=taus)
    assert rep.reduced_linf < 1e-5


# -- converse field strength ------------------------------------------------------


def test_converse_w_stationary_is_degenerate(tg):
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 0.1, 11)
    psis = np.zeros((11,) + tg.spatial_shape)
    path = FlowPath(tg, sigma, "c", ts, psis)
    with pytest.raises(HypothesisViolated):
        kx.calabi_converse_w(path, constant_profile(0.0), 1.0)


def test_converse_w_positive_on_flow(calabi_path):
    # choose the level profile steep enough that the denominator is
    # sign-definite along the run
    from kredux.curvature import scal_m

    rate = np.max(np.abs(scal_m(calabi_path.metric_at(0)).values)) * 200.0
    h = lambda t: rate * np.asarray(t)
    w, rep = kx.calabi_converse_w(calabi_path, h, 1.0)
    assert rep.extra["min_w"] > 0.0


def test_converse_w_sign_flip_fails(calabi_path):
    h = constant_profile(0.0)
    with pytest.raises(HypothesisViolated):
        kx.calabi_converse_w(calabi_path, h, -1.0)


# -- all-pairs inversion ---------------------------------------------------------


def concave_path(grid, n=11, seed=0):
    # psi_t = c t - (1 + a) t^2 - b e^t: strictly concave in t at every node
    rng = np.random.default_rng(seed)
    a, b, c = (1e-3 * rng.random(grid.spatial_shape) for _ in range(3))
    ts = np.linspace(0.0, 1.0, n)
    psis = np.array([c * t - (1 + a) * t * t - b * np.exp(t) for t in ts])
    return FlowPath(grid, kx.reference_sigma(grid), "concave", ts, psis)


def test_inversion_matches_brentq_per_pair():
    grid = kx.TestbedGrid("torus", 9, 9, -1.0, 1.0, margin=2)
    path = concave_path(grid)
    splines = _TimeSplines(path.spline)
    # velocities span about [-2.003, 0]; the levels reach beyond both ends
    targets = np.linspace(-4.0, 2.0, 129)
    roots, worst, steps = splines.solve_velocity(targets)
    assert roots.shape == (81, 129)
    resid = np.abs(splines.at(roots, 1)[0] - targets)
    # measured: within 4 eps (8.9e-16) of max(1, |target|), after at most
    # 2 Newton updates
    assert np.all(resid <= 1e-15 * np.maximum(1.0, np.abs(targets)))
    assert worst == np.max(resid)
    assert steps <= 2
    ts = path.ts
    psis = path.psis.reshape(len(ts), -1)
    for node in (0, 40, 63, 80):
        spl = make_interp_spline(ts, psis[:, node], k=5)

        def velocity(t):
            end = min(max(t, ts[0]), ts[-1])
            return float(spl(end, 1) + spl(end, 2) * (t - end))

        for target, root in zip(targets, roots[node]):
            ref = brentq(lambda t: velocity(t) - target, -50.0, 50.0,
                         xtol=1e-15)
            assert abs(root - ref) <= 1e-12


def rising_at_one_node(spline):
    """The time spline of a path's samples whose first node follows
    psi_t = t^2, so the velocity rises there (that sample is no Kahler
    potential, so there is no such path)."""
    ys = spline(spline.x)
    ys[:, 0, 0] = spline.x ** 2
    return QuinticSpline(spline.x, ys)


def test_inversion_raises_when_not_converged():
    grid = kx.TestbedGrid("torus", 9, 9, -1.0, 1.0, margin=2)
    splines = _TimeSplines(rising_at_one_node(concave_path(grid).spline))
    with pytest.raises(NotConverged, match="Legendre inversion"):
        splines.solve_velocity(np.linspace(-3.0, 1.0, 5))
    assert issubclass(NotConverged, kx.KreduxError)
