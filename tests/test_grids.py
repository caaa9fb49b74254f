import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import traced_peak
from kredux.grids import TestbedGrid as Grid
from kredux.grids import (_spatial_like, _wavenumbers, fd_apply, fd_weights,
                          radial_grid, torus_grid)


# -- references -----------------------------------------------------------------
# Plain formulas the kernels must reproduce: the stencil bit for bit on a
# moveaxis view with fresh temporaries, and the torus operators, to roundoff,
# as one 2-D transform pair.


def spectral_derivative(values, axis, order, n):
    """Spectral derivative along a periodic axis of unit period."""
    k = _wavenumbers(n, odd=order == 1)
    if order == 1:
        mult = 1j * k
    elif order == 2:
        mult = -(k * k)
    else:
        raise ValueError("order must be 1 or 2")
    shape = [1] * values.ndim
    shape[axis] = n
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape),
                      axis=axis)
    return np.real(out)


def _fd_apply_moveaxis(values, axis, order, h, n):
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    out = np.empty_like(v)
    scale = h ** (-order)
    core = v[..., 2:n - 2]
    acc = np.zeros_like(core)
    interior = fd_weights(np.arange(-2.0, 3.0), 0.0, order)
    for k, w in zip(range(-2, 3), interior * scale):
        if k != 0:
            acc += w * (v[..., 2 + k:n - 2 + k] - core)
    out[..., 2:n - 2] = acc
    width = 5 if order == 1 else 6
    for i in (0, 1, n - 2, n - 1):
        lo = min(max(i - width // 2, 0), n - width)
        idx = np.arange(lo, lo + width)
        w = fd_weights((idx - i).astype(float), 0.0, order)
        fi = v[..., i]
        s = np.zeros_like(fi)
        for j, wj in zip(idx, w * scale):
            if j != i:
                s += wj * (v[..., j] - fi)
        out[..., i] = s
    return np.moveaxis(out, -1, axis)


def _dz_fft2(grid, values):
    k = _wavenumbers(grid.n_spatial, odd=True)
    sym = _spatial_like(0.5 * (1j * k[:, None] + k[None, :]), values)
    return np.fft.ifft2(np.fft.fft2(values, axes=(0, 1)) * sym, axes=(0, 1))


def _dzbar_dz_rfft2(grid, values):
    n = grid.n_spatial
    k = _wavenumbers(n, odd=False)
    sym = -0.25 * (k[:, None] ** 2 + k[None, :n // 2 + 1] ** 2)
    sym = _spatial_like(sym, values)
    return np.fft.irfft2(np.fft.rfft2(values, axes=(0, 1)) * sym,
                         s=grid.spatial_shape, axes=(0, 1))


def _read_only_sample(shape, seed):
    """Random values with signed zeros and a constant run, read-only like
    the arrays :class:`KahlerData` caches."""
    v = np.random.default_rng(seed).standard_normal(shape)
    flat = v.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 0.0
    flat[: flat.size // 5] = -0.0
    v.flags.writeable = False
    return v


def _assert_same_bits(got, ref, values):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))
    assert got.flags.writeable
    assert not np.shares_memory(got, values)


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


# n = 9 and n = 10 are the shortest axes a grid accepts; (48, 48, 9) and
# (48, 48, 10) run the fiber axis in more than one block
FD_CASES = [(shape, axis)
            for shape in [(32, 32), (32, 32, 65), (32, 32, 129),
                          (32, 32, 257), (257,), (257, 129), (9, 10),
                          (10, 9), (48, 48, 9), (48, 48, 10)]
            for axis in (0, -1)] + [((3, 4, 33), -1)]


@pytest.mark.parametrize("order", [1, 2])
def test_fd_apply_cached_weights_bit_identical(order):
    from kredux.grids import _stencil

    h = 0.0731
    for shape, axis in FD_CASES:
        n = shape[axis]
        v = _read_only_sample(shape, order)
        got = fd_apply(v, axis, order, h, n)
        _assert_same_bits(got, _fd_apply_moveaxis(v, axis, order, h, n), v)
        if axis == -1:
            _assert_same_bits(got, _fd_apply_fresh_weights(v, order, h, n), v)
        assert np.array_equal(fd_apply(v, axis, order, h, n), got)
        interior, ends = _stencil(n, order)
        assert _stencil(n, order) is _stencil(n, order)
        assert not any(a.flags.writeable for a in (interior, *ends))


@pytest.mark.parametrize("order", [1, 2])
def test_fd_apply_buffers_stay_block_sized(order):
    # the fiber axis of a torus field runs in blocks of about 128 KB, so the
    # peak is the output and a few block buffers; one full-size copy of the
    # 2.1 MB input would cross the bound of eight such blocks.  Measured
    # above the output: 0.75 MB (order 1) and 0.87 MB (order 2).
    v = np.random.default_rng(order).standard_normal((32, 32, 257))
    out, peak = traced_peak(fd_apply, v, -1, order, 0.0731, 257)
    assert peak <= out.nbytes + 8 * (128 << 10)


# The Fourier-matrix kernels against the FFT round trip they replaced, in
# max norm relative to the reference's largest value: measured at most
# 6.0e-16 over five samples of each shape (7.3e-14 absolute for d/dz,
# 4.5e-12 for d^2/dz dzbar), so the bound leaves a margin of about 16.
TORUS_REL = 1e-14


def _assert_close_to(got, ref, values):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= TORUS_REL * np.max(np.abs(ref))
    assert got.flags.writeable
    assert not np.shares_memory(got, values)


@pytest.mark.parametrize("shape", [(32, 32), (32, 32, 65), (32, 32, 129),
                                   (32, 32, 257), (17, 17), (17, 17, 9)],
                         ids=str)
def test_torus_kernels_match_2d_transforms(shape):
    g = torus_grid(n=shape[0], n_l=shape[2] if len(shape) == 3 else 9,
                   margin=2)
    v = _read_only_sample(shape, shape[0])
    _assert_close_to(g.dz_stripped(v), _dz_fft2(g, v), v)
    _assert_close_to(g.dzbar_dz(v), _dzbar_dz_rfft2(g, v), v)


@pytest.mark.parametrize("n", [16, 17, 32])
@pytest.mark.parametrize("fiber", [False, True], ids=["2d", "3d"])
def test_torus_kernels_annihilate_constants_exactly(n, fiber):
    # each axis is differentiated from its differences to the first node, so
    # a field constant along an axis has an exactly zero derivative there
    g = torus_grid(n=n, n_l=9, margin=2)
    shape = g.p_shape if fiber else g.spatial_shape
    v = np.random.default_rng(n).standard_normal(shape)
    flat0 = np.broadcast_to(v[:1], shape)     # constant along axis 0
    flat1 = np.broadcast_to(v[:, :1], shape)  # constant along axis 1
    flat = np.broadcast_to(v[:1, :1], shape)  # constant along both
    assert np.all(g.dz_stripped(flat0).real == 0.0)
    assert np.all(g.dz_stripped(flat1).imag == 0.0)
    assert np.all(g.dz_stripped(flat) == 0.0)
    assert np.all(g.dzbar_dz(flat) == 0.0)
    for f in (flat0, flat1):
        _assert_close_to(g.dz_stripped(f), _dz_fft2(g, f), f)
        _assert_close_to(g.dzbar_dz(f), _dzbar_dz_rfft2(g, f), f)


@pytest.mark.parametrize("n", [16, 17])
def test_fourier_matrices_shared_per_n_and_read_only(n):
    from kredux.grids import _fourier_matrices

    mats = _fourier_matrices(n)
    assert _fourier_matrices(n) is mats
    for m in mats:
        assert m.shape == (n, n) and m.dtype == float
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    # grids of any fiber resolution differentiate with the same matrices,
    # and once they are built no FFT runs
    v = np.random.default_rng(n).standard_normal((n, n))
    fakes = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), mock.DEFAULT)
    for n_l in (9, 33):
        g = torus_grid(n=n, n_l=n_l, margin=2)
        with mock.patch.multiple(np.fft, **fakes) as called:
            ddbar = g.dzbar_dz(v)
            g.dz_stripped(np.broadcast_to(v[..., None], g.p_shape))
        assert not any(f.called for f in called.values())
        assert np.array_equal(ddbar, mats[1] @ (v - v[:1])
                              + (v - v[:, :1]) @ mats[1].T)
    assert _fourier_matrices(n) is mats


MODES_REL = 1e-14  # measured at most 9.5e-16 over the sizes below


@pytest.mark.parametrize("n", [9, 16, 17, 32])
def test_fourier_modes_diagonalize_the_second_derivative(n):
    from kredux.grids import _fourier_matrices, _fourier_modes

    q, lam = _fourier_modes(n)
    assert _fourier_modes(n)[0] is q
    assert not q.flags.writeable and not lam.flags.writeable
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= MODES_REL
    d2 = _fourier_matrices(n)[1]
    assert np.max(np.abs(q @ np.diag(lam) @ q.T - d2)) \
        <= MODES_REL * np.max(np.abs(d2))
    assert lam[0] == 0.0
    assert np.array_equal(lam, -0.25 * _wavenumbers(n, odd=False) ** 2)
    g = torus_grid(n=n, n_l=9, margin=2)
    f = _read_only_sample(g.spatial_shape, n)
    back = g.from_modes(g.to_modes(f))
    assert np.max(np.abs(back - f)) <= MODES_REL * np.max(np.abs(f))
    ref = g.dzbar_dz(f)
    got = g.from_modes(g.ddbar_eigenvalues * g.to_modes(f))
    assert np.max(np.abs(got - ref)) <= MODES_REL * np.max(np.abs(ref))


def test_radial_modes_are_the_nodes():
    g = radial_grid(n_u=33, n_l=9, margin=2)
    f = _read_only_sample(g.spatial_shape, 3)
    for move in (g.to_modes, g.from_modes):
        out = move(f)
        assert np.array_equal(out, f) and out.flags.writeable
        assert not np.shares_memory(out, f)
    assert g.ddbar_eigenvalues == 0.0


def test_axes_are_the_spatial_coordinates():
    tg, rg = torus_grid(n=9, n_l=9, margin=2), radial_grid(n_u=9, n_l=9,
                                                            margin=2)
    assert tg.axes == (tg.x1, tg.x2) and rg.axes == (rg.v,)
    for g in (tg, rg):
        assert tuple(map(len, g.axes)) == g.spatial_shape


# interior |dzbar_dz(f) - t| / max |t| at n = 65, 129, 257, 513 read 6.0e-4,
# 3.4e-5, 2.1e-6 and 1.3e-7 (order 4); each mean read at most 1.1e-16
RADIAL_SOLVE_ORDER = 3.5
RADIAL_SOLVE_MEAN = 1e-14


def test_radial_solve_dzbar_dz_inverts_at_fourth_order():
    errs = []
    for n in (65, 129, 257, 513):
        g = radial_grid(n_u=n, n_l=9, margin=8)
        t = np.exp(-g.v ** 2 / 8.0) * np.cos(g.v) / (1.0 + g.u) ** 2
        f = g.solve_dzbar_dz(t)
        errs.append(g.interior_norms(g.dzbar_dz(f) - t)[0]
                    / np.max(np.abs(t)))
        # the trapezoid mean in v
        w = g.spatial_quad_weights / (np.pi * g.u)
        assert abs(np.sum(f * w) / np.sum(w)) <= RADIAL_SOLVE_MEAN
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= RADIAL_SOLVE_ORDER), (errs, orders)


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


def test_margin_without_interior_raises_on_use():
    # the grid itself is valid: base-field dumps load with a placeholder n_l
    g = Grid("radial", 17, 9, -1.0, 1.0, margin=9)
    with pytest.raises(ValueError, match="margin=9 leaves no interior nodes "
                                         "on the radial axis of 17 nodes"):
        g.interior(np.zeros(g.spatial_shape))
    # the fiber axis is checked first
    with pytest.raises(ValueError, match="on the fiber axis of 9 nodes"):
        g.interior_norms(np.zeros(g.p_shape))
    t = torus_grid(n=16, n_l=9, margin=4)
    assert t.interior(np.ones(t.spatial_shape)).size == 16 * 16
    assert t.interior(np.ones(t.p_shape)).size == 16 * 16


@pytest.mark.parametrize("shape", [(), (17,), (16, 8), (16, 16, 8),
                                   (9, 16, 16)])
def test_interior_of_a_wrong_shape_raises(shape):
    # base and total-space shapes: (16, 16) and (16, 16, 9) on the torus,
    # (16,) and (16, 9) on the radial testbed
    for grid in (torus_grid(n=16, n_l=9, margin=4),
                 radial_grid(n_u=16, n_l=9, margin=4)):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape} is")):
            grid.interior(np.zeros(shape))
        with pytest.raises(ValueError, match="neither a base"):
            grid.interior_norms(np.zeros(shape))
