"""Randomized properties of the fiber interpolant and its antiderivative, the
level solve, the quintic spline, the torus spatial derivatives, gauge moves,
the fixed points of the flows, reduction and lift as inverses, and the round
trips of configurations, field dumps and grids (hypothesis, derandomized so
the suite is repeatable)."""

import functools
import math
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import KroghInterpolator, make_interp_spline
from scipy.optimize import brentq

import kredux as kx
import kredux.interp
from kredux.config import RunConfig
from kredux.errors import NotConverged
from kredux.fields import ScalarFieldM, ScalarFieldP
from kredux.fixtures import random_resolved_m
from kredux.interp import FiberInterp, QuinticSpline
from kredux.io import dump_field, load_field

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)
N_SPACE = 9  # radial grids: the spatial axis is one line of 9 nodes

unit = st.floats(-1.0, 1.0)
fractions = arrays(float, N_SPACE, elements=st.floats(0.0, 1.0))
quintics = arrays(float, (N_SPACE, 6), elements=unit)
windows = st.tuples(st.floats(-2.0, -0.1), st.floats(0.1, 2.0),
                    st.integers(9, 65))


def _grid(window):
    l_min, l_max, n_l = window
    return kx.TestbedGrid("radial", N_SPACE, n_l, l_min, l_max)


def _poly_at(coeffs, pts):
    """Each node's quintic (coefficient row) at that node's point(s)."""
    return np.array([np.polyval(c, p) for c, p in zip(coeffs, pts)])


def _decreasing_mu(grid, a, b, c):
    """mu = a - b l - c sinh(l) per node: strictly decreasing when b > 0 and
    c >= 0."""
    l = grid.l
    return ScalarFieldP(grid, a[:, None] - b[:, None] * l
                        - c[:, None] * np.sinh(l))


def _assert_reproduces(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@SETTINGS
@given(window=windows, coeffs=quintics, frac=fractions)
def test_fiber_interp_reproduces_quintics(window, coeffs, frac):
    grid = _grid(window)
    pts = grid.l_min + frac * (grid.l_max - grid.l_min)
    fi = FiberInterp(grid.l, _poly_at(coeffs, [grid.l] * N_SPACE))
    _assert_reproduces(fi.at(pts), _poly_at(coeffs, pts))


@SETTINGS
@given(window=windows, coeffs=quintics)
def test_fiber_antiderivative_integrates_quintics(window, coeffs):
    grid = _grid(window)
    F = FiberInterp(grid.l, _poly_at(coeffs, [grid.l] * N_SPACE)).antiderivative()
    prims = np.array([np.polyint(c) for c in coeffs])
    want = (_poly_at(prims, [grid.l] * N_SPACE)
            - _poly_at(prims, [grid.l_min] * N_SPACE)[:, None])
    _assert_reproduces(F, want)


@SETTINGS
@given(window=windows, re=quintics, im=quintics,
       slopes=arrays(float, N_SPACE, elements=st.floats(0.2, 3.0)),
       frac=st.floats(0.05, 0.95))
def test_level_weights_reproduce_quintics(window, re, im, slopes, frac):
    grid = _grid(window)
    mu = _decreasing_mu(grid, np.zeros(N_SPACE), slopes, np.zeros(N_SPACE))
    lo, hi = np.max(mu.values[:, -1]), np.min(mu.values[:, 0])
    level = kx.level_set(mu, lo + frac * (hi - lo))
    lt = level.l_tau.values
    real = _poly_at(re, [grid.l] * N_SPACE)
    imag = _poly_at(im, [grid.l] * N_SPACE)
    _assert_reproduces(level.weights.apply(real), _poly_at(re, lt))
    out = level.weights.apply(real + 1j * imag)
    _assert_reproduces(out.real, _poly_at(re, lt))
    _assert_reproduces(out.imag, _poly_at(im, lt))


@SETTINGS
@given(window=windows,
       a=arrays(float, N_SPACE, elements=st.floats(-0.5, 0.5)),
       b=arrays(float, N_SPACE, elements=st.floats(0.05, 3.0)),
       c=arrays(float, N_SPACE, elements=st.floats(0.0, 2.0)),
       frac=st.floats(0.0, 1.0))
def test_reduced_moment_map_is_the_level(window, a, b, c, frac):
    mu = _decreasing_mu(_grid(window), a, b, c)
    lo, hi = np.max(mu.values[:, -1]), np.min(mu.values[:, 0])
    if not lo < hi:
        return  # no level is reached at every node
    tau = min(lo + frac * (hi - lo), hi)
    level = kx.level_set(mu, tau)
    got = kx.reduce_scalar(mu, level).values
    # the solve runs to roundoff: the worst of 600 examples is 4.3e-15
    bound = 1e-14 * max(1.0, abs(tau))
    assert np.max(np.abs(got - tau)) <= bound
    assert level.max_residual <= bound


items = st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-1.9, 1.9)),
    arrays(float, n, elements=st.floats(0.01, 5.0)),
    arrays(float, n, elements=st.floats(0.0, 5.0))))


@SETTINGS
@given(items=items, n_l=st.integers(9, 65))
def test_solve_decreasing_matches_brentq(items, n_l):
    # decreasing cubics f_i(l) = b_i (r_i - l) + c_i (r_i^3 - l^3), which the
    # 6-point interpolant reproduces
    roots, b, c = items
    l = np.linspace(-2.0, 2.0, n_l)

    def f(x, i):
        return b[i] * (roots[i] - x) + c[i] * (roots[i] ** 3 - x ** 3)

    fi = FiberInterp(l, f(l[None, :], np.arange(roots.size)[:, None]))
    got, missing, resid, steps = fi.solve_decreasing(0.0)[0][:4]
    assert not missing.any()
    assert steps <= kredux.interp.MAX_NEWTON_STEPS
    for i in range(roots.size):
        ref = brentq(f, -2.0, 2.0, args=(i,), xtol=1e-15)
        # |f'| >= b_i on the bracket, so a residual at the cubics' roundoff
        # bounds the root error; over 600 examples |got - ref| b_i <= 4.7e-14
        assert abs(got[i] - ref) <= 1e-13 / b[i] + 4e-15
    # the step count is the smallest cap that converges
    if steps > 0:
        with mock.patch.object(kredux.interp, "MAX_NEWTON_STEPS", steps - 1):
            with pytest.raises(NotConverged):
                fi.solve_decreasing(0.0)


@functools.lru_cache(maxsize=None)
def _moment_map(kind):
    """Fiber axis and moment map of a small perturbed structure."""
    if kind == "torus":
        K = kx.perturbed(kx.torus_grid(12, 33, margin=4), 0.02)
    else:
        K = kx.perturbed(kx.radial_grid(33, 33, margin=4), 0.01)
    return K.grid.l, K.mu.values


# a level: inside the range of mu (reached at some nodes or all), a node
# value, a window-end value (a root on a fiber end), or out of range
level_picks = st.one_of(
    st.tuples(st.just("inside"), st.floats(0.0, 1.0)),
    st.tuples(st.just("node"), st.integers(0, 10 ** 6), st.integers(0, 32)),
    st.tuples(st.just("end"), st.integers(0, 10 ** 6), st.sampled_from([0, -1])),
    st.tuples(st.just("out"), st.sampled_from([-1.0, 1.0]),
              st.floats(1e-9, 1.0)))


def _level(flat, pick):
    kind, *args = pick
    lo, hi = float(np.min(flat)), float(np.max(flat))
    if kind == "inside":
        return lo + args[0] * (hi - lo)
    if kind == "out":
        side, gap = args
        return hi + gap if side > 0 else lo - gap
    return float(flat[args[0] % len(flat), args[1]])


@SETTINGS
@given(kind=st.sampled_from(["torus", "radial"]),
       picks=st.lists(level_picks, min_size=1, max_size=8),
       loop_pairs=st.sampled_from([2048, 1, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_levels_solved_together_match_one_at_a_time(kind, picks, loop_pairs,
                                                    seed):
    l, mu = _moment_map(kind)
    fi = FiberInterp(l, mu)
    taus = np.array([_level(mu.reshape(-1, l.size), p) for p in picks])
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(mu.shape)
    cplx = rng.standard_normal(mu.shape) + 1j * rng.standard_normal(mu.shape)
    # a smaller loop splits the levels into groups of one or two torus levels
    with mock.patch.object(kredux.interp, "_LOOP_PAIRS", loop_pairs):
        together = fi.solve_decreasing(taus)
    assert len(together) == len(taus)
    for tau, (roots, missing, resid, steps, weights) in zip(taus, together):
        roots_1, missing_1, resid_1, steps_1 = fi.solve_decreasing(tau)[0][:4]
        assert np.array_equal(_bits(roots), _bits(roots_1))
        assert np.array_equal(missing, missing_1)
        assert np.array_equal(_bits(resid), _bits(resid_1))
        assert steps == steps_1
        # the solver's own weights are the weights at its roots
        at_roots = fi.weights(roots)
        assert np.array_equal(_bits(weights.apply(real)),
                              _bits(at_roots.apply(real)))
        got, want = weights.apply(cplx), at_roots.apply(cplx)
        assert np.array_equal(_bits(got.real), _bits(want.real))
        assert np.array_equal(_bits(got.imag), _bits(want.imag))


quintic_splines = st.integers(6, 60).flatmap(lambda n: st.tuples(
    st.floats(-2.0, 2.0),
    arrays(float, n - 1, elements=st.floats(0.1, 1.0)),
    arrays(float, (n, 2, 3), elements=unit)))


@SETTINGS
@given(spline=quintic_splines)
def test_quintic_spline_matches_scipy(spline):
    start, gaps, y = spline
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    ref, spl = make_interp_spline(x, y, k=5), QuinticSpline(x, y)
    assert spl.c.shape == (6, x.size - 1) + y.shape[1:]
    # row k against scipy's derivative of order 5 - k at each piece's
    # start; both in units of the smallest knot spacing
    h = np.min(gaps)
    for k in range(6):
        want = ref(x[:-1], 5 - k) / math.factorial(5 - k) * h ** (5 - k)
        _assert_reproduces(spl.c[k] * h ** (5 - k), want)
    # both end pieces extrapolate, here over that spacing
    t = np.concatenate([np.linspace(x[0] - h, x[-1] + h, 33), x])
    _assert_reproduces(spl(t), ref(t))


@SETTINGS
@given(n=st.integers(2, 5), start=st.floats(-2.0, 2.0), data=st.data())
def test_quintic_spline_of_few_knots_is_the_polynomial(n, start, data):
    gaps = data.draw(arrays(float, n - 1, elements=st.floats(0.1, 1.0)))
    y = data.draw(arrays(float, (n, 2, 3), elements=unit))
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    spl, ref = QuinticSpline(x, y), KroghInterpolator(x, y)
    # inside and one piece width beyond, derivatives in units of the
    # smallest knot spacing
    t = np.concatenate([np.linspace(x[0] - gaps[0], x[-1] + gaps[-1], 17), x])
    h = np.min(gaps)
    for nu in range(3):
        _assert_reproduces(spl(t, nu) * h ** nu,
                           ref.derivative(t, nu) * h ** nu)


GAUGE_K = kx.perturbed(kx.torus_grid(n=12, n_l=17, margin=2), 0.02)


def _trig_modes(n):
    """Modes (p, q, a, b), each the term a cos(theta) + b sin(theta) with
    theta = 2 pi (p x1 + q x2), of a trigonometric polynomial on an n x n
    torus grid: every frequency the grid resolves, with the Nyquist pair of
    an even n drawn often."""
    top = n // 2
    freq = st.one_of(st.sampled_from([-top, top]), st.integers(-top, top))
    return st.lists(st.tuples(freq, freq, unit, unit), min_size=1, max_size=6)


# max-norm error of the torus derivatives of trigonometric polynomials, in
# units of sum |a| + |b| times (2 pi floor(n/2)) for d/dz and its square for
# d^2/dz dzbar: measured at most 9.6e-16 and 3.9e-16 over 3,000 random
# polynomials of this kind, so the bound leaves a margin of ten
TRIG_REL = 1e-14


@SETTINGS
@given(n=st.integers(9, 48), fiber=st.booleans(), data=st.data())
def test_torus_derivatives_of_trig_polynomials(n, fiber, data):
    # the analytic derivatives under the grid's Nyquist rules: an odd
    # derivative drops the Nyquist mode of its axis, the second keeps it
    g = kx.torus_grid(n=n, n_l=9, margin=2)
    modes = data.draw(_trig_modes(n))
    j = np.arange(n)
    f, fx1, fx2, lap = (np.zeros(g.spatial_shape) for _ in range(4))
    scale = 0.0
    for p, q, a, b in modes:
        # the phase reduced mod n in integers, so each value is good to 1 ulp
        theta = 2.0 * np.pi * ((p * j[:, None] + q * j[None, :]) % n) / n
        value = a * np.cos(theta) + b * np.sin(theta)
        slope = 2.0 * np.pi * (b * np.cos(theta) - a * np.sin(theta))
        f += value
        fx1 += 0.0 if 2 * abs(p) == n else p * slope
        fx2 += 0.0 if 2 * abs(q) == n else q * slope
        lap -= (2.0 * np.pi) ** 2 * (p * p + q * q) * value
        scale += abs(a) + abs(b)
    dz, ddbar = 0.5 * (fx1 - 1j * fx2), 0.25 * lap
    if fiber:
        profile = data.draw(arrays(float, g.n_l, elements=unit))
        f, dz, ddbar = (x[..., None] * profile for x in (f, dz, ddbar))
        scale *= np.max(np.abs(profile))
    k = 2.0 * np.pi * (n // 2)
    assert np.max(np.abs(g.dz_stripped(f) - dz)) <= TRIG_REL * scale * k
    assert np.max(np.abs(g.dzbar_dz(f) - ddbar)) <= TRIG_REL * scale * k * k


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.002),
       b=st.floats(-10.0, 10.0), c_tilde=st.floats(-2.0, 2.0))
def test_gauge_move_keeps_omega_and_mu(seed, amplitude, b, c_tilde):
    K = GAUGE_K
    u = random_resolved_m(K.grid, np.random.default_rng(seed), modes=2,
                          amplitude=amplitude)
    Kt = kx.gauge(K, u, b, c_tilde)
    for name in ("g11", "g12", "g22"):
        gap = getattr(Kt.omega, name) - getattr(K.omega, name)
        assert np.max(np.abs(gap)) < 1e-10
    assert np.max(np.abs(Kt.mu.values - K.mu.values)) < 1e-10


# Twice the largest gaps measured over the strategy's box; both peak at its
# corner amplitude 0.03, shrink 0.05, at 3.3e-7 and 3.3e-9.  The moment-map
# gap falls at order 3 under fiber refinement, set by the lift's cubic in time.
LIFT_MU_GAP = 7e-7
LIFT_PSI_GAP = 7e-9


@settings(SETTINGS, max_examples=10)
@given(amplitude=st.floats(0.005, 0.03), shrink=st.floats(0.05, 0.15))
@example(amplitude=0.03, shrink=0.05)
def test_reduction_and_lift_are_inverse(amplitude, shrink):
    # the family of K's reductions is concave as it stands, so it lifts with
    # no shift; the lift must give back K's moment map and K's reductions
    K = kx.perturbed(kx.torus_grid(16, 65, margin=4), amplitude)
    taus = kx.default_taus(K, count=41, shrink=shrink)
    psis = np.array([kx.reduced_potential(K, t).psi_tau.values for t in taus])
    path = kx.FlowPath(K.grid, K.sigma, "reductions", taus, psis)
    lift = kx.legendre_lift(path, n_l=65)
    g = lift.data.grid
    mu_k = np.stack([K.mu_interp().at(np.full(g.spatial_shape, l))
                     for l in g.l], axis=-1)
    gap = np.abs(lift.data.mu.values - mu_k)[g.interior_p()]
    assert np.max(gap) < LIFT_MU_GAP
    for tau in kx.admissible_taus(path, lift):
        psi_tau = psis[np.flatnonzero(taus == tau)[0]]
        gap = kx.reduced_potential(lift.data, tau).psi_tau.values - psi_tau
        assert np.max(np.abs(gap)) < LIFT_PSI_GAP


def _moves(run, sigma, const, **kw):
    psi0 = np.full(sigma.grid.spatial_shape, const)
    return np.max(np.abs(run(psi0, sigma, 1e-4, dt=1e-4, **kw).psis[-1] - psi0))


# every flow runs on both testbeds, so fewer examples keep the time down
@settings(SETTINGS, max_examples=12)
@given(n=st.integers(9, 40), n_u=st.integers(33, 257), l_u=st.floats(3.0, 8.0),
       const=st.floats(-10.0, 10.0))
def test_reference_metrics_stationary_under_every_flow(n, n_u, l_u, const):
    flat = kx.reference_sigma(kx.torus_grid(n=n, n_l=9))
    for run, kw in ((kx.calabi_integrate, {}),
                    (kx.pseudo_calabi_integrate, {}),
                    (kx.kr_integrate, {}),
                    (kx.kr_integrate, {"normalized": True})):
        assert _moves(run, flat, const, **kw) < 1e-12
    fs = kx.reference_sigma(kx.radial_grid(n_u=n_u, n_l=9, l_u=l_u))
    for run, kw in ((kx.calabi_integrate, {}),
                    (kx.pseudo_calabi_integrate, {}),
                    (kx.kr_integrate, {"normalized": True})):
        assert _moves(run, fs, const, **kw) < 1e-12


words = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", max_size=12)
reals = st.floats(allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
configs = st.builds(
    RunConfig, testbed=st.sampled_from(["torus", "radial"]),
    n=st.integers(9, 10 ** 6), n_l=st.integers(9, 10 ** 6),
    l_min=reals, l_max=reals, l_u=reals, margin=st.integers(-10 ** 6, 10 ** 6),
    dtau=positive, flow_kind=words,
    flow_dt=st.floats(min_value=-0.0, allow_infinity=False),
    flow_t_end=positive, flow_amplitude=finite, fixture=words, tau=reals,
    seed=st.integers(-10 ** 9, 10 ** 9), out=words)


@SETTINGS
@given(cfg=configs)
def test_run_config_text_roundtrip(cfg):
    text = cfg.to_text()
    back = RunConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text  # keeps the sign of -0.0 as well


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


SPECIAL = (-0.0, 5e-324, -2.225073858507201e-308, 1e-310)


@SETTINGS
@given(kind=st.sampled_from(["torus", "radial"]), base=st.booleans(),
       n=st.integers(9, 12), n_l=st.integers(9, 12),
       l_min=st.floats(-50.0, 50.0), width=st.floats(1e-3, 50.0),
       l_u=st.floats(0.1, 50.0), data=st.data())
def test_field_dump_roundtrip_is_bit_exact(kind, base, n, n_l, l_min, width,
                                           l_u, data):
    grid = kx.TestbedGrid(kind, n, n_l, l_min, l_min + width, l_u, margin=2)
    shape = grid.spatial_shape if base else grid.p_shape
    vals = data.draw(arrays(float, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    vals.flat[:len(SPECIAL)] = SPECIAL
    field = (ScalarFieldM if base else ScalarFieldP)(grid, vals)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "field.csv")
        dump_field(field, path)
        back_grid, back, on_base = load_field(path)
    assert on_base == base
    assert np.array_equal(_bits(back), _bits(vals))
    # a base dump carries no fiber resolution; its grid gets the least one
    assert back_grid == (replace(grid, n_l=9) if base else grid)


@SETTINGS
@given(kind=st.sampled_from(["torus", "radial"]),
       n=st.integers(9, 4096), n_l=st.integers(9, 4096),
       l_min=st.floats(-50.0, 50.0), width=st.floats(1e-3, 50.0),
       l_u=st.floats(0.1, 50.0), margin=st.integers(2, 64),
       numpy_scalars=st.booleans())
def test_grid_rebuilds_from_its_meta(kind, n, n_l, l_min, width, l_u, margin,
                                     numpy_scalars):
    args = (n, n_l, l_min, l_min + width, l_u, margin)
    if numpy_scalars:
        args = (np.int64(n), np.int32(n_l), np.float64(l_min),
                np.float32(l_min + width), np.float64(l_u), np.int16(margin))
    g = kx.TestbedGrid(kind, *args)
    meta = g.meta()
    assert [type(v) for v in meta.values()] == [str, int, int, float, float,
                                                float, int]
    back = kx.TestbedGrid(**meta)
    assert back == g
    assert hash(back) == hash(g)
