"""Randomized properties of the fiber interpolant, the level solve and the
shared Newton solver (hypothesis, derandomized so the suite is repeatable)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import kredux as kx
from kredux.errors import NotConverged
from kredux.fields import ScalarFieldP
from kredux.interp import FiberInterp, newton_decreasing

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
