"""Randomized properties of the fiber interpolant, the level solve, the
shared Newton solver, gauge moves and the round trips of configurations,
field dumps and grids (hypothesis, derandomized so the suite is
repeatable)."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import kredux as kx
from kredux.config import RunConfig
from kredux.errors import NotConverged
from kredux.fields import ScalarFieldM, ScalarFieldP
from kredux.fixtures import random_resolved_m
from kredux.interp import FiberInterp, newton_decreasing
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
       frac=st.floats(0.0, 1.0),
       root_tol=st.sampled_from([1e-12, 1e-10, 1e-8]))
def test_reduced_moment_map_is_the_level(window, a, b, c, frac, root_tol):
    mu = _decreasing_mu(_grid(window), a, b, c)
    lo, hi = np.max(mu.values[:, -1]), np.min(mu.values[:, 0])
    if not lo < hi:
        return  # no level is reached at every node
    tau = lo + frac * (hi - lo)
    level = kx.level_set(mu, tau, root_tol=root_tol)
    got = kx.reduce_scalar(mu, level).values
    assert np.max(np.abs(got - tau)) <= root_tol * max(1.0, abs(tau))
    assert level.max_residual <= root_tol * max(1.0, abs(tau))


def _cubic_items(roots, b, c):
    """Decreasing cubics f_i(x) = b_i (r_i - x) + c_i (r_i^3 - x^3)."""
    def fun(x, items):
        r, bi, ci = roots[items], b[items], c[items]
        return (bi * (r - x) + ci * (r ** 3 - x ** 3),
                -bi - 3.0 * ci * x * x)
    return fun


items = st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-1.9, 1.9)),
    arrays(float, n, elements=st.floats(0.01, 5.0)),
    arrays(float, n, elements=st.floats(0.0, 5.0))))


@SETTINGS
@given(items=items)
def test_newton_decreasing_matches_brentq(items):
    roots, b, c = items
    fun = _cubic_items(roots, b, c)
    lo, hi = np.full(roots.size, -2.0), np.full(roots.size, 2.0)
    got, resid, steps = newton_decreasing(fun, lo, hi, 1e-13, 120, "cubics")
    assert np.all(np.abs(resid) <= 1e-13)
    for i in range(roots.size):
        ref = brentq(lambda x: fun(np.array([x]), np.array([i]))[0][0],
                     -2.0, 2.0, xtol=1e-15)
        # |f'| >= b_i on the bracket, so the residual bounds the root error
        assert abs(got[i] - ref) <= 1e-13 / b[i] + 4e-15
    # the step count is the smallest budget that converges
    if steps > 0:
        with pytest.raises(NotConverged):
            newton_decreasing(fun, lo, hi, 1e-13, steps - 1, "cubics")


GAUGE_K = kx.perturbed_cylinder(kx.torus_grid(n=12, n_l=17, margin=2),
                                amplitude=0.02)


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


words = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", max_size=12)
reals = st.floats(allow_nan=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
configs = st.builds(
    RunConfig, testbed=st.sampled_from(["torus", "radial"]),
    n=st.integers(9, 10 ** 6), n_l=st.integers(9, 10 ** 6),
    l_min=reals, l_max=reals, l_u=reals, margin=st.integers(-10 ** 6, 10 ** 6),
    root_tol=positive, dtau=positive, flow_kind=words, flow_dt=reals,
    flow_t_end=reals, flow_amplitude=reals, fixture=words, tau=reals,
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
       data=st.data())
def test_field_dump_roundtrip_is_bit_exact(kind, base, data):
    grid = kx.TestbedGrid(kind, 9, 9, -1.0, 1.0, margin=2)
    shape = grid.spatial_shape if base else grid.p_shape
    vals = data.draw(arrays(float, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    vals.flat[:len(SPECIAL)] = SPECIAL
    field = (ScalarFieldM if base else ScalarFieldP)(grid, vals)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "field.csv")
        dump_field(field, path)
        _, back, on_base = load_field(path)
    assert on_base == base
    assert np.array_equal(_bits(back), _bits(vals))


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
