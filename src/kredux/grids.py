"""Testbed grids and the raw differentiation engines they carry.

Two spatial testbeds are supported:

* ``torus``: an N x N periodic grid on the unit square, complex coordinate
  z = x1 + i*x2.  Spatial derivatives are spectral.
* ``radial``: rotationally symmetric data on CP^1 charted by v = log u with
  u = |z|^2, v in [-L_u, L_u].  Spatial derivatives are 4th-order finite
  differences in v.

Both carry a fiber axis l = log s (s = |w|^2 on the annulus factor), uniform
nodes, 4th-order finite differences with one-sided closures of matching order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

TORUS = "torus"
RADIAL = "radial"


def fd_weights(x, x0, m):
    """Finite-difference weights for the m-th derivative at x0 on nodes x.

    Fornberg's recursion; exact for arbitrary node placement.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)
def _stencil(n, order):
    """Weights, without the 1/h^order scale, of the 4th-order stencil on n
    uniform nodes: the centred interior row and the one-sided closure rows
    ``(row, node indices, weights)``."""
    interior = fd_weights(np.arange(-2.0, 3.0), 0.0, order)
    interior.flags.writeable = False
    width = 5 if order == 1 else 6
    rows = []
    for i in (0, 1, n - 2, n - 1):
        lo = min(max(i - width // 2, 0), n - width)
        idx = np.arange(lo, lo + width)
        w = fd_weights((idx - i).astype(float), 0.0, order)
        idx.flags.writeable = w.flags.writeable = False
        rows.append((i, idx, w))
    return interior, tuple(rows)


def fd_apply(values, axis, order, h, n):
    """Apply the 4th-order stencil along ``axis`` in difference form.

    Each row is evaluated as sum_k w_k (f_{i+k} - f_i), so constants are
    annihilated exactly in floating point; this matters wherever chart
    factors later amplify small residues.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    out = np.empty_like(v)
    scale = h ** (-order)
    interior, rows = _stencil(n, order)
    w_int = interior * scale
    core = v[..., 2:n - 2]
    acc = np.zeros_like(core)
    for k, w in zip(range(-2, 3), w_int):
        if k == 0:
            continue
        acc += w * (v[..., 2 + k:n - 2 + k] - core)
    out[..., 2:n - 2] = acc
    for i, idx, w in rows:
        fi = v[..., i]
        s = np.zeros_like(fi)
        for j, wj in zip(idx, w * scale):
            if j == i:
                continue
            s += wj * (v[..., j] - fi)
        out[..., i] = s
    return np.moveaxis(out, -1, axis)


def _wavenumbers(n, odd):
    """Angular wavenumbers of a unit-period axis in fft order; odd derivatives
    drop the Nyquist mode."""
    k = 2.0 * np.pi * np.fft.fftfreq(n) * n
    if odd and n % 2 == 0:
        k[n // 2] = 0.0
    return k


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
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)
    return np.real(out)


def _spatial_like(arr, values):
    """Broadcast a per-spatial-node array against base values or against
    total-space values, which carry a trailing fiber axis."""
    return arr if values.ndim == arr.ndim else arr[..., None]


@dataclass(frozen=True)
class TestbedGrid:
    """Discretized product of a spatial testbed with a log-fiber axis.

    Parameters
    ----------
    kind : "torus" or "radial"
    n_spatial : nodes per spatial axis (torus: N x N; radial: N_u nodes in v)
    n_l : fiber nodes, uniform in l = log s on [l_min, l_max]
    l_min, l_max : fiber window
    l_u : radial half-width of v = log u (ignored for the torus)
    margin : node count trimmed at each non-periodic boundary when taking
        residual norms
    """

    kind: str
    n_spatial: int
    n_l: int
    l_min: float
    l_max: float
    l_u: float = 8.0
    margin: int = 4

    def __post_init__(self):
        if self.kind not in (TORUS, RADIAL):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n_spatial < 9 or self.n_l < 9:
            raise ValueError("resolutions must be at least 9")
        if not self.l_min < self.l_max:
            raise ValueError("need l_min < l_max")
        if self.margin < 2:
            raise ValueError("margin must be at least 2")
        # plain Python numbers: every report writes meta() as its grid block
        for name in ("n_spatial", "n_l", "margin"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("l_min", "l_max", "l_u"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def meta(self):
        return asdict(self)

    # -- axes -------------------------------------------------------------

    @cached_property
    def l(self):
        return np.linspace(self.l_min, self.l_max, self.n_l)

    @property
    def h_l(self):
        return (self.l_max - self.l_min) / (self.n_l - 1)

    @cached_property
    def x1(self):
        return np.arange(self.n_spatial) / self.n_spatial

    @property
    def x2(self):
        return self.x1

    @cached_property
    def v(self):
        return np.linspace(-self.l_u, self.l_u, self.n_spatial)

    @property
    def h_v(self):
        return 2.0 * self.l_u / (self.n_spatial - 1)

    @cached_property
    def u(self):
        """|z|^2 on the radial chart."""
        return np.exp(self.v)

    @property
    def spatial_shape(self):
        if self.kind == TORUS:
            return (self.n_spatial, self.n_spatial)
        return (self.n_spatial,)

    @property
    def p_shape(self):
        return self.spatial_shape + (self.n_l,)

    # -- differentiation engines ------------------------------------------

    def d_l(self, values, order=1):
        """Fiber derivative along the last axis."""
        return fd_apply(values, -1, order, self.h_l, self.n_l)

    def d_v(self, values, order=1):
        """Radial-chart derivative along the first axis."""
        return fd_apply(values, 0, order, self.h_v, self.n_spatial)

    # -- spatial complex calculus -----------------------------------------

    @cached_property
    def _dz_symbol(self):
        """Torus symbol of d/dz on the fft2 plane."""
        k = _wavenumbers(self.n_spatial, odd=True)
        return 0.5 * (1j * k[:, None] + k[None, :])

    @cached_property
    def ddbar_symbol(self):
        """Torus symbol of d^2/dz dzbar on the rfft2 half-plane."""
        n = self.n_spatial
        k = _wavenumbers(n, odd=False)
        return -0.25 * (k[:, None] ** 2 + k[None, :n // 2 + 1] ** 2)

    def dz_stripped(self, values):
        """Holomorphic spatial derivative in stripped form.

        Torus: the honest d/dz = (d/dx1 - i d/dx2)/2.  Radial: d/dv, which is
        z * d/dz for rotationally symmetric data; the 1/z phase is restored
        through :attr:`mixed_weight` wherever invariant pairings are formed.
        """
        if self.kind == TORUS:
            sym = _spatial_like(self._dz_symbol, values)
            return np.fft.ifft2(np.fft.fft2(values, axes=(0, 1)) * sym,
                                axes=(0, 1))
        return self.d_v(values, 1)

    def dzbar_dz(self, values):
        """The real density d^2/dz dzbar of a scalar field."""
        if self.kind == TORUS:
            sym = _spatial_like(self.ddbar_symbol, values)
            return np.fft.irfft2(np.fft.rfft2(values, axes=(0, 1)) * sym,
                                 s=self.spatial_shape, axes=(0, 1))
        return self.d_v(values, 2) / _spatial_like(self.u, values)

    @cached_property
    def mixed_weight(self):
        """Weight pairing two stripped holomorphic components into |.|^2 units."""
        if self.kind == TORUS:
            return np.ones(self.spatial_shape)
        return 1.0 / self.u

    # -- quadrature --------------------------------------------------------

    @cached_property
    def spatial_quad_weights(self):
        """Weights w(x) with  integral f dA = sum f * H * w  for a metric H."""
        if self.kind == TORUS:
            return np.full(self.spatial_shape, 1.0 / self.n_spatial**2)
        w = np.full(self.n_spatial, self.h_v)
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.pi * self.u * w

    # -- interior masks ----------------------------------------------------

    def interior_p(self):
        """Boolean mask over P nodes away from one-sided stencil boundaries."""
        m = self.margin
        mask = np.zeros(self.p_shape, dtype=bool)
        if self.kind == TORUS:
            mask[:, :, m:self.n_l - m] = True
        else:
            mask[m:self.n_spatial - m, m:self.n_l - m] = True
        return mask

    def interior_m(self):
        m = self.margin
        mask = np.zeros(self.spatial_shape, dtype=bool)
        if self.kind == TORUS:
            mask[:, :] = True
        else:
            mask[m:self.n_spatial - m] = True
        return mask


def torus_grid(n=32, n_l=129, l_min=-1.2, l_max=1.2, margin=8):
    """Default margin 8: stacked 4th-order fiber stencils carry the one-sided
    closure influence about eight rows in, and norms must not see it."""
    return TestbedGrid(TORUS, n, n_l, l_min, l_max, margin=margin)


def radial_grid(n_u=257, n_l=129, l_min=-1.2, l_max=1.2, l_u=8.0, margin=8):
    return TestbedGrid(RADIAL, n_u, n_l, l_min, l_max, l_u=l_u, margin=margin)
