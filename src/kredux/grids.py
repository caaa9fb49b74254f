"""Testbed grids and the raw differentiation engines they carry.

Two spatial testbeds are supported:

* ``torus``: an N x N periodic grid on the unit square, complex coordinate
  z = x1 + i*x2.  Spatial derivatives are spectral: d/dz and d^2/dz dzbar
  apply the real N x N Fourier differentiation matrices of each axis (one
  matrix product per axis, cached per N).  The flows' ETDRK4 state and the
  Poisson solve (:meth:`TestbedGrid.solve_dzbar_dz`) take the same
  d^2/dz dzbar diagonal, on the real Fourier modes of each axis
  (:meth:`TestbedGrid.to_modes`), cached too.
* ``radial``: rotationally symmetric data on CP^1 charted by v = log u with
  u = |z|^2, v in [-L_u, L_u].  Spatial derivatives are 4th-order finite
  differences in v; its modes are the nodes, with eigenvalue 0, and the
  Poisson solve takes two antiderivatives in v.

Only this module and :mod:`kredux.fixtures` decide by testbed; the others
ask the grid for its operators and :attr:`TestbedGrid.axes`.

Both carry a fiber axis l = log s (s = |w|^2 on the annulus factor), uniform
nodes, 4th-order finite differences with one-sided closures of matching order.

Every residual norm is taken over the grid's interior
(:meth:`TestbedGrid.interior`), which the grid reads off the array's shape:
the nodes at least ``margin`` away from each end of the fiber axis and of the
radial chart, where the one-sided closures do not reach; every torus node is
interior in space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .interp import FiberInterp

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
    uniform nodes: the centred interior row, and the one-sided closure rows
    as ``(rows, nodes, weights)``: row ``rows[r]`` sums ``weights[r, m]``
    times the difference at node ``nodes[r, m]``, every node but its own, in
    increasing order."""
    interior = fd_weights(np.arange(-2.0, 3.0), 0.0, order)
    width = 5 if order == 1 else 6
    rows = np.array([0, 1, n - 2, n - 1])
    nodes, weights = [], []
    for i in rows:
        lo = min(max(i - width // 2, 0), n - width)
        idx = np.arange(lo, lo + width)
        w = fd_weights((idx - i).astype(float), 0.0, order)
        nodes.append(idx[idx != i])
        weights.append(w[idx != i])
    ends = (rows, np.array(nodes), np.array(weights))
    for a in (interior, *ends):
        a.flags.writeable = False
    return interior, ends


# Bytes per stencil block: small enough that a block's fiber-major copy and
# buffers stay in cache and reuse freed heap memory, not fresh pages.
_BLOCK_BYTES = 1 << 17


def fd_apply(values, axis, order, h, n):
    """Apply the 4th-order stencil along ``axis`` in difference form.

    Each row is evaluated as sum_k w_k (f_{i+k} - f_i), so constants are
    annihilated exactly in floating point; this matters wherever chart
    factors later amplify small residues.  Every row sums from zero (so a
    sum of ``-0.0`` terms is ``+0.0``) in increasing ``k``.

    Interior rows share their differences: ``d1[j] = f[j+1] - f[j]`` and
    ``d2[j] = f[j+2] - f[j]`` are each taken once, and row i adds
    ``-(w_-k * d_k[i-k])`` for k = 2, 1, then ``w_k * d_k[i]`` for k = 1, 2.
    Where ``w_-k`` equals ``w_k`` or ``-w_k`` exactly (checked, never
    assumed), the product ``w_k * d_k`` is taken once too and serves both
    terms; order 2's ``w_-1`` and ``w_1`` differ in the last bit, so that
    pair keeps two products.  Two IEEE facts make this the same bits as the
    plain form: rounding is symmetric in sign, so ``a - b == -(b - a)`` and
    ``w * -d == -(w * d)``; and a sum started from ``+0.0`` is never
    ``-0.0``, so the sign of a zero term cannot show.  The four closure rows
    gather all their nodes with one index.

    The array is viewed as (before, axis, after).  Interior rows run on
    blocks of about ``_BLOCK_BYTES`` laid out fiber-major (stencil axis
    first), so each shift is one contiguous run; a block is copied into that
    layout unless it has it already.
    """
    vals = np.asarray(values, dtype=float)
    axis = axis % vals.ndim
    v = np.ascontiguousarray(vals).reshape(math.prod(vals.shape[:axis]), n, -1)
    out = np.empty(v.shape)
    scale = h ** (-order)
    interior, ends = _stencil(n, order)
    wm2, wm1, _, w1, w2 = interior * scale
    blocks = max(1, math.ceil(v.nbytes / _BLOCK_BYTES))
    step = max(1, math.ceil(len(v) / blocks))
    for p in range(0, len(v), step):
        f = np.ascontiguousarray(v[p:p + step].transpose(1, 0, 2))
        dst = out[p:p + step].transpose(1, 0, 2)[2:n - 2]
        acc = dst if dst.flags.c_contiguous else np.empty(dst.shape)
        d1 = f[2:n - 1] - f[1:n - 2]   # d1[j - 1] = f[j + 1] - f[j]
        d2 = f[2:] - f[:n - 2]         # d2[j] = f[j + 2] - f[j]
        terms = ((2, d2, wm2, w2), (1, d1, wm1, w1))
        for k, d, wm, wp in terms:                 # -2, then -1
            if abs(wm) == abs(wp):
                d *= wp
                term = d[:n - 4]
            else:
                term = np.multiply(d[:n - 4], wm)
            op = np.add if wm == -wp else np.subtract
            op(0.0 if k == 2 else acc, term, out=acc)  # first term from zero
        for k, d, wm, wp in reversed(terms):       # +1, then +2
            if abs(wm) != abs(wp):
                d[k:] *= wp
            acc += d[k:]
        if acc is not dst:
            dst[...] = acc
    rows, nodes, weights = ends
    g = v[:, nodes.T]                  # (before, node, row, after)
    g -= v[:, None, rows]
    g *= (weights * scale).T[:, :, None]
    acc = np.zeros(g[:, 0].shape)
    for m in range(g.shape[1]):
        acc += g[:, m]
    out[:, rows] = acc
    return out.reshape(vals.shape)


def _wavenumbers(n, odd):
    """Angular wavenumbers of a unit-period axis in fft order; odd derivatives
    drop the Nyquist mode."""
    k = 2.0 * np.pi * np.fft.fftfreq(n) * n
    if odd and n % 2 == 0:
        k[n // 2] = 0.0
    return k


@lru_cache(maxsize=None)
def _fourier_matrices(n):
    """Real n x n Fourier differentiation matrices of a unit-period axis:
    ``0.5 d/dx`` (odd rule, Nyquist dropped) and ``0.25 d^2/dx^2`` (even
    rule, Nyquist kept), each the spectral derivative of the identity's
    columns, so ``M @ f`` differentiates ``f`` along its first axis."""
    fhat = np.fft.fft(np.eye(n), axis=0)
    k1, k2 = _wavenumbers(n, odd=True), _wavenumbers(n, odd=False)
    mats = tuple(np.fft.ifft(sym[:, None] * fhat, axis=0).real.copy()
                 for sym in (0.5j * k1, -0.25 * k2 * k2))
    for m in mats:
        m.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def _fourier_modes(n):
    """Orthonormal real Fourier modes of a unit-period axis, the columns of
    ``q`` in fft order (cosines up to n//2, sines after), and on them the
    eigenvalues -0.25 k^2 of :func:`_fourier_matrices`' 0.25 d^2/dx^2."""
    j = np.arange(n)
    # node i's phase 2 pi m i / n in the mode of frequency m, m i reduced
    # mod n so that the argument stays below 2 pi
    phase = 2.0 * np.pi / n * (np.outer(j, np.minimum(j, n - j)) % n)
    q = np.where(j <= n // 2, np.cos(phase), np.sin(phase))
    q /= np.linalg.norm(q, axis=0)
    out = q, -0.25 * _wavenumbers(n, odd=False) ** 2
    for a in out:
        a.flags.writeable = False
    return out


def _along0(m, f):
    """``m`` applied along spatial axis 0 of a torus field, to the
    differences from the axis's first node, so a field constant along the
    axis gives exact zeros; returns the product and the differences, whose
    buffer :func:`_along1` reuses."""
    d = f - f[:1]
    return np.matmul(m, d.reshape(len(f), -1)).reshape(f.shape), d


def _along1(m, f, diffs, out=None):
    """``m`` applied along spatial axis 1 of ``f``, to the differences from
    the axis's first node, which are taken into the buffer ``diffs``; the
    product goes into ``out`` when given."""
    np.subtract(f, f[:, :1], out=diffs)
    if f.ndim == 2:
        return np.matmul(diffs, m.T, out=out)
    return np.matmul(m, diffs, out=out)


# Chart limits: s = e^l and u^2 = e^2v stay finite floats (e^700 ~ 1e304),
# and so does the second-derivative stencils' 1/h^2.
_MAX_LOG = 700.0
_MIN_SPACING = 1e-150


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
        for name in ("l_min", "l_max", "l_u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.l_min < self.l_max:
            raise ValueError("need l_min < l_max")
        if self.l_u <= 0:
            raise ValueError("l_u must be positive")
        for name, top in (("l_min", _MAX_LOG), ("l_max", _MAX_LOG),
                          ("l_u", _MAX_LOG / 2)):
            if abs(getattr(self, name)) > top:
                raise ValueError(f"{name} must be at most {top:g} in "
                                 "magnitude")
        for name, h in (("l_max - l_min", self.h_l), ("l_u", self.h_v)):
            if h < _MIN_SPACING:
                raise ValueError(f"{name} must be larger: the node spacing "
                                 f"{h:.3g} is below {_MIN_SPACING:g}")
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
    def axes(self):
        """The spatial coordinate axes, one per spatial index: (x1, x2) on
        the torus, (v,) on the radial testbed."""
        return (self.x1, self.x2) if self.kind == TORUS else (self.v,)

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

    def to_modes(self, values):
        """A base field's coefficients ``Q^T f Q`` on the torus modes, on which
        :meth:`dzbar_dz` is diagonal; radial modes are the nodes (a copy)."""
        if self.kind != TORUS:
            return np.array(values, dtype=float)
        q = _fourier_modes(self.n_spatial)[0]
        return q.T @ values @ q

    def from_modes(self, coeffs):
        """Inverse of :meth:`to_modes`: ``Q c Q^T`` on the torus."""
        if self.kind != TORUS:
            return np.array(coeffs, dtype=float)
        q = _fourier_modes(self.n_spatial)[0]
        return q @ coeffs @ q.T

    @cached_property
    def ddbar_eigenvalues(self):
        """Eigenvalues of d^2/dz dzbar on the modes of :meth:`to_modes`
        (the two axes' summed on the torus, 0 on the radial testbed)."""
        if self.kind != TORUS:
            return 0.0
        lam = _fourier_modes(self.n_spatial)[1]
        return lam[:, None] + lam[None, :]

    def solve_dzbar_dz(self, target):
        """The zero-mean f with d^2 f/dz dzbar = ``target``: through the
        modes on the torus; on the radial testbed by two antiderivatives in
        v (Neumann ends), less their trapezoid mean in v."""
        if self.kind == TORUS:
            eig = self.ddbar_eigenvalues.copy()
            eig[0, 0] = 1.0
            coeffs = self.to_modes(target) / eig
            coeffs[0, 0] = 0.0  # the constant mode
            out = self.from_modes(coeffs)
            return out - np.mean(out)
        a1 = FiberInterp(self.v, self.u * target).antiderivative()
        out = FiberInterp(self.v, a1).antiderivative()
        w = self.spatial_quad_weights / (np.pi * self.u)
        return out - np.sum(out * w) / np.sum(w)

    def dz_stripped(self, values):
        """Holomorphic spatial derivative in stripped form.

        Torus: the honest d/dz = (d/dx1 - i d/dx2)/2.  Radial: d/dv, which is
        z * d/dz for rotationally symmetric data; the 1/z phase is restored
        through :attr:`mixed_weight` wherever invariant pairings are formed.
        """
        if self.kind == TORUS:
            d1, _ = _fourier_matrices(self.n_spatial)
            f = np.asarray(values, dtype=float)
            along0, diffs = _along0(d1, f)
            out = np.empty(f.shape, dtype=complex)
            out.real = along0
            # the axis-1 product reuses the axis-0 product's buffer: fresh
            # pages per call are what 3-D fields cost under glibc's default
            # malloc policy
            np.negative(_along1(d1, f, diffs, out=along0), out=out.imag)
            return out
        return self.d_v(values, 1)

    def dzbar_dz(self, values):
        """The real density d^2/dz dzbar of a scalar field."""
        if self.kind == TORUS:
            _, d2 = _fourier_matrices(self.n_spatial)
            f = np.asarray(values, dtype=float)
            along0, diffs = _along0(d2, f)
            along0 += _along1(d2, f, diffs)
            return along0
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

    # -- interior nodes ----------------------------------------------------

    def _interior(self, axis, n):
        """Slice of the nodes at least ``margin`` away from both ends of an
        axis of ``n`` nodes; a margin that leaves none is an input error."""
        m = self.margin
        if n <= 2 * m:
            raise ValueError(f"margin={m} leaves no interior nodes on the "
                             f"{axis} axis of {n} nodes")
        return slice(m, n - m)

    def interior(self, values):
        """The interior nodes of a base or total-space array, as a new 1-D
        array in C order: every torus node, less ``margin`` nodes at each
        end of the fiber and radial axes."""
        values = np.asarray(values)
        if values.shape == self.p_shape:
            fiber = (self._interior("fiber", self.n_l),)
        elif values.shape == self.spatial_shape:
            fiber = ()
        else:
            raise ValueError(f"an array of shape {values.shape} is neither a "
                             f"base {self.spatial_shape} nor a total-space "
                             f"{self.p_shape} array")
        spatial = (...,) if self.kind == TORUS else \
            (self._interior("radial", self.n_spatial),)
        return values[spatial + fiber].flatten()

    def interior_norms(self, values):
        """(sup, rms) of |values| over :meth:`interior`."""
        r = np.abs(self.interior(values))
        return float(np.max(r)), float(np.sqrt(np.mean(r * r)))


def torus_grid(n=32, n_l=129, l_min=-1.2, l_max=1.2, margin=8):
    """Default margin 8: stacked 4th-order fiber stencils carry the one-sided
    closure influence about eight rows in, and norms must not see it."""
    return TestbedGrid(TORUS, n, n_l, l_min, l_max, margin=margin)


def radial_grid(n_u=257, n_l=129, l_min=-1.2, l_max=1.2, l_u=8.0, margin=8):
    return TestbedGrid(RADIAL, n_u, n_l, l_min, l_max, l_u=l_u, margin=margin)
