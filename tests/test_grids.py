from dataclasses import replace

import numpy as np
import pytest

from kredux.grids import TestbedGrid as Grid
from kredux.grids import (fd_apply, fd_weights, radial_grid,
                          spectral_derivative, torus_grid)


def test_fd_weights_centered_first():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 1)
    assert np.allclose(w * 12, [1, -8, 0, 8, -1], atol=1e-13)


def test_fd_weights_centered_second():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 2)
    assert np.allclose(w * 12, [-1, 16, -30, 16, -1], atol=1e-13)


@pytest.mark.parametrize("order,deg", [(1, 4), (2, 5)])
def test_fd_apply_polynomial_exact(order, deg):
    x = np.linspace(-1.5, 2.0, 41)
    h = x[1] - x[0]
    f = x ** deg
    exact = deg * x ** (deg - 1) if order == 1 else deg * (deg - 1) * x ** (deg - 2)
    out = fd_apply(f, 0, order, h, len(x))
    assert np.max(np.abs(out - exact)) < 1e-10


def test_fd_apply_annihilates_constants_exactly():
    x = np.linspace(-8.0, 8.0, 257)
    f = np.full(257, 0.731)
    for order in (1, 2):
        assert np.max(np.abs(fd_apply(f, 0, order, x[1] - x[0], 257))) == 0.0


def test_fd_apply_fourth_order_convergence():
    errs = []
    for n in (65, 129):
        x = np.linspace(-1.0, 1.0, n)
        out = fd_apply(np.exp(x), 0, 1, x[1] - x[0], n)
        errs.append(np.max(np.abs(out - np.exp(x))[3:-3]))
    assert np.log2(errs[0] / errs[1]) > 3.5


def _fd_apply_fresh_weights(v, order, h, n):
    """fd_apply along the last axis with every weight recomputed."""
    out = np.empty_like(v)
    for i in range(n):
        if 2 <= i < n - 2:
            idx = np.arange(i - 2, i + 3)
        else:
            width = 5 if order == 1 else 6
            lo = min(max(i - width // 2, 0), n - width)
            idx = np.arange(lo, lo + width)
        w = fd_weights((idx - i).astype(float), 0.0, order) * h ** (-order)
        s = np.zeros_like(v[..., i])
        for j, wj in zip(idx, w):
            if j != i:
                s += wj * (v[..., j] - v[..., i])
        out[..., i] = s
    return out


@pytest.mark.parametrize("order", [1, 2])
def test_fd_apply_cached_weights_bit_identical(order):
    from kredux.grids import _stencil

    n, h = 33, 0.0731
    v = np.random.default_rng(order).standard_normal((3, 4, n))
    got = fd_apply(v, -1, order, h, n)
    assert np.array_equal(got, _fd_apply_fresh_weights(v, order, h, n))
    assert np.array_equal(fd_apply(v, -1, order, h, n), got)
    interior, rows = _stencil(n, order)
    assert _stencil(n, order) is _stencil(n, order)
    assert not interior.flags.writeable
    assert all(not w.flags.writeable for _, _, w in rows)


def test_spectral_derivative_resolved_mode():
    n = 32
    x = np.arange(n) / n
    f = np.sin(2 * np.pi * 3 * x)
    out = spectral_derivative(f, 0, 1, n)
    assert np.max(np.abs(out - 6 * np.pi * np.cos(6 * np.pi * x))) < 1e-10


@pytest.mark.parametrize("n", [16, 17])
def test_torus_complex_calculus_matches_per_axis_spectral(n):
    # the batched 2-D transforms against d/dz = (d1 - i d2)/2 and
    # d^2/dz dzbar = (d1^2 + d2^2)/4 composed from per-axis derivatives
    g = torus_grid(n=n, n_l=9, margin=2)
    rng = np.random.default_rng(n)
    for shape in (g.spatial_shape, g.p_shape):
        f = rng.standard_normal(shape)
        dz = 0.5 * (spectral_derivative(f, 0, 1, n)
                    - 1j * spectral_derivative(f, 1, 1, n))
        ddbar = 0.25 * (spectral_derivative(f, 0, 2, n)
                        + spectral_derivative(f, 1, 2, n))
        for ours, ref in ((g.dz_stripped(f), dz), (g.dzbar_dz(f), ddbar)):
            assert ours.shape == shape
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid("torus", 8, 129, -1, 1)
    with pytest.raises(ValueError):
        Grid("torus", 32, 129, 1, -1)
    with pytest.raises(ValueError):
        Grid("torus", 32, 129, -1, 1, margin=1)
    with pytest.raises(ValueError):
        Grid("plane", 32, 129, -1, 1)


def test_grid_axes_monotone():
    for g in (torus_grid(n=16, n_l=33), radial_grid(n_u=33, n_l=33)):
        assert np.all(np.diff(g.l) > 0)
        if g.kind == "radial":
            assert np.all(np.diff(g.v) > 0)


def test_refined_fiber_preserves_nodes():
    g = torus_grid(n=16, n_l=33)
    g2 = replace(g, n_l=2 * (g.n_l - 1) + 1)
    assert g2.n_l == 65
    assert np.allclose(g2.l[::2], g.l)
