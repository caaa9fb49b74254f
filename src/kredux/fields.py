r"""Invariant fields on the total space and on the base, and their calculus.

Conventions (fixed once, enforced by the convention self-test):

* d^c = i(dbar - d), so dd^c f = 2i d dbar f.
* A (1,1)-form on M is stored through its coefficient H with respect to
  i dz /\ dzbar; hence H(dd^c f) = 2 f_{z zbar}.
* On P the Hermitian frame is (dz, dzeta) with zeta = log w, so l = log s =
  zeta + zetabar and the fiber generator acts on invariant fields as
  -2 d/dl.
* Laplacians are metric traces g^{jbar k} d_k d_jbar; |grad f|^2 =
  2 g^{jbar k} f_k f_jbar.  These choices make De^f = e^f(Df + |grad f|^2/2)
  an identity.
* Integration uses the density H * w(x) with w the quadrature weights of the
  grid, normalized so the flat torus metric H = 1 has unit volume.

Mixed (dz /\ dzetabar) and (2,0) (dz /\ dzeta) components are stored in
"stripped" form: on the torus they are the honest coefficients, on the radial
chart the 1/z phase is removed and restored through the grid's mixed weight
whenever two such components are paired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TestbedGrid


def _check_grid(a, b):
    if a != b:
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


class _FieldBase:
    __slots__ = ("grid", "values")

    def __init__(self, grid: TestbedGrid, values):
        values = np.asarray(values, dtype=self._dtype)
        if values.shape != self._shape(grid):
            raise ValueError(
                f"{type(self).__name__} values of shape {values.shape} do not "
                f"match grid shape {self._shape(grid)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} contains non-finite values")
        self.grid = grid
        self.values = values

    _dtype = float

    def _wrap(self, values):
        return type(self)(self.grid, values)

    def __add__(self, other):
        if isinstance(other, _FieldBase):
            _check_grid(self.grid, other.grid)
            return self._wrap(self.values + other.values)
        return self._wrap(self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _FieldBase):
            _check_grid(self.grid, other.grid)
            return self._wrap(self.values - other.values)
        return self._wrap(self.values - other)

    def __rsub__(self, other):
        return self._wrap(other - self.values)

    def __mul__(self, other):
        if isinstance(other, _FieldBase):
            _check_grid(self.grid, other.grid)
            return self._wrap(self.values * other.values)
        return self._wrap(self.values * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _FieldBase):
            _check_grid(self.grid, other.grid)
            return self._wrap(self.values / other.values)
        return self._wrap(self.values / other)

    def __neg__(self):
        return self._wrap(-self.values)


class ScalarFieldP(_FieldBase):
    """Invariant scalar f(x, l) sampled on (spatial grid) x (fiber axis)."""

    def _shape(self, grid):
        return grid.p_shape


class ScalarFieldM(_FieldBase):
    """Scalar on the base, sampled on the spatial grid."""

    def _shape(self, grid):
        return grid.spatial_shape


@dataclass(frozen=True)
class Form11M:
    """Real (1,1)-form on M: coefficient ``h`` of i dz /\\ dzbar."""

    grid: TestbedGrid
    h: np.ndarray

    def __post_init__(self):
        h = np.ascontiguousarray(self.h, dtype=float)
        if h.shape != self.grid.spatial_shape:
            raise ValueError("component shape does not match grid")
        if not np.all(np.isfinite(h)):
            raise ValueError("form has non-finite components")
        object.__setattr__(self, "h", h)

    def __add__(self, other):
        _check_grid(self.grid, other.grid)
        return Form11M(self.grid, self.h + other.h)

    def __sub__(self, other):
        _check_grid(self.grid, other.grid)
        return Form11M(self.grid, self.h - other.h)

    def __mul__(self, a):
        return Form11M(self.grid, self.h * a)

    __rmul__ = __mul__

    def is_positive(self):
        return bool(np.all(self.h > 0))


def _component(grid, name, arr, dtype):
    """A form component as a contiguous array of the grid's P shape, with
    finite entries."""
    a = np.ascontiguousarray(arr, dtype=dtype)
    if a.shape != grid.p_shape:
        raise ValueError(f"{name} shape does not match grid")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite components")
    return a


@dataclass(frozen=True)
class Form11P:
    """Invariant real 2-form on P in the Hermitian frame (dz, dzeta).

    ``g11`` and ``g22`` are the real diagonal components, ``g12`` the stripped
    mixed component (coefficient of i dz /\\ dzetabar), and ``b20`` the
    stripped (2,0)-coefficient of dz /\\ dzeta, present for forms such as
    d(g d^c mu) that are not of pure type.  b20 = None means identically zero.
    """

    grid: TestbedGrid
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    b20: np.ndarray | None = None

    def __post_init__(self):
        for name, arr, dtype in (("g11", self.g11, float),
                                 ("g12", self.g12, complex),
                                 ("g22", self.g22, float)):
            object.__setattr__(self, name, _component(self.grid, name, arr,
                                                      dtype))
        if self.b20 is not None:
            object.__setattr__(self, "b20", _component(self.grid, "b20",
                                                       self.b20, complex))

    def _b(self):
        if self.b20 is None:
            return np.zeros(self.grid.p_shape, dtype=complex)
        return self.b20

    def __add__(self, other):
        _check_grid(self.grid, other.grid)
        b = None
        if self.b20 is not None or other.b20 is not None:
            b = self._b() + other._b()
        return Form11P(self.grid, self.g11 + other.g11, self.g12 + other.g12,
                       self.g22 + other.g22, b)

    def __sub__(self, other):
        _check_grid(self.grid, other.grid)
        b = None
        if self.b20 is not None or other.b20 is not None:
            b = self._b() - other._b()
        return Form11P(self.grid, self.g11 - other.g11, self.g12 - other.g12,
                       self.g22 - other.g22, b)

    def __mul__(self, a):
        b = None if self.b20 is None else self.b20 * a
        return Form11P(self.grid, self.g11 * a, self.g12 * a, self.g22 * a, b)

    __rmul__ = __mul__

    def mixed_sq(self):
        """|g12|^2 in invariant units."""
        wm = self.grid.mixed_weight[..., None]
        return (self.g12.real**2 + self.g12.imag**2) * wm

    def det(self):
        """Determinant of the Hermitian component matrix (pure-type part)."""
        return self.g11 * self.g22 - self.mixed_sq()

    def min_eigenvalue(self):
        """Smallest eigenvalue of the 2x2 Hermitian component matrix, per node."""
        half_tr = 0.5 * (self.g11 + self.g22)
        gap = np.sqrt(0.25 * (self.g11 - self.g22) ** 2 + self.mixed_sq())
        return half_tr - gap

    def component_magnitudes(self):
        """Real magnitude fields of all frame components, invariant units."""
        wm = np.sqrt(self.grid.mixed_weight)[..., None]
        mags = [np.abs(self.g11), np.abs(self.g12) * wm, np.abs(self.g22)]
        if self.b20 is not None:
            mags.append(np.abs(self.b20) * wm)
        return mags


@dataclass(frozen=True)
class TopFormP:
    """Top form on P: coefficient ``t`` of (i dz /\\ dzbar) /\\ dl /\\ dtheta."""

    grid: TestbedGrid
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t",
                           _component(self.grid, "t", self.t, float))


@dataclass(frozen=True)
class VContraction:
    """Components of i_V theta for a 2-form theta.

    ``z`` is the stripped dz-component (the dzbar one is its conjugate) and
    ``l`` the dl-component; ``vv`` is the full double contraction
    i_{JV} i_V theta.
    """

    grid: TestbedGrid
    z: np.ndarray
    l: np.ndarray
    vv: np.ndarray


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------


def jv_apply(f: ScalarFieldP) -> ScalarFieldP:
    """Action of the rotated circle generator on invariant fields: -2 df/dl."""
    return f._wrap(-2.0 * f.grid.d_l(f.values, 1))


def ddc_m(f, grid=None) -> Form11M:
    """dd^c on the base: H = 2 f_{z zbar}."""
    if isinstance(f, ScalarFieldM):
        grid = f.grid
        vals = f.values
    else:
        vals = np.asarray(f, dtype=float)
    return Form11M(grid, 2.0 * grid.dzbar_dz(vals))


def ddc_p(f: ScalarFieldP) -> Form11P:
    """dd^c of an invariant function, in frame components; the fiber block
    uses the dedicated second-derivative stencil."""
    g = f.grid
    g11 = 2.0 * g.dzbar_dz(f.values)
    g12 = 2.0 * g.dz_stripped(g.d_l(f.values, 1))
    g22 = 2.0 * g.d_l(f.values, 2)
    return Form11P(g, g11, g12, g22)


def d_wedge_dc(g_field: ScalarFieldP, K) -> Form11P:
    """The 2-form d(g d^c mu) = dg /\\ d^c mu + g dd^c mu for an invariant g
    and the moment map mu of the structure K, whose dd^c mu is kept.

    The gradient of mu is read off the structure: omega's mixed component is
    -dz mu and |V|^2 = -2 d_l mu, exactly as ``assemble`` builds them.

    Carries a (2,0) part whenever the fiber and spatial gradients of g and mu
    fail to be proportional.
    """
    grid = g_field.grid
    _check_grid(grid, K.mu.grid)
    dzg = grid.dz_stripped(g_field.values)
    dzmu = -K.omega.g12
    dlg = grid.d_l(g_field.values, 1)
    dlmu = -0.5 * K.vsq.values
    wm = grid.mixed_weight[..., None]
    ddc_mu = K.ddc_mu()
    gv = g_field.values
    g11 = 2.0 * np.real(dzg * np.conj(dzmu)) * wm + gv * ddc_mu.g11
    g12 = dzg * dlmu + dzmu * dlg + gv * ddc_mu.g12
    g22 = 2.0 * dlg * dlmu + gv * ddc_mu.g22
    b20 = -1j * (dzg * dlmu - dlg * dzmu)
    return Form11P(grid, g11, g12, g22, b20)


# ---------------------------------------------------------------------------
# contractions and wedge algebra
# ---------------------------------------------------------------------------


def wedge_square(theta: Form11P) -> TopFormP:
    """theta /\\ theta as a top form."""
    t = 2.0 * theta.det()
    if theta.b20 is not None:
        wm = theta.grid.mixed_weight[..., None]
        t = t + 2.0 * (theta.b20.real**2 + theta.b20.imag**2) * wm
    return TopFormP(theta.grid, t)


def trace_against(omega: Form11P, theta: Form11P, det=None) -> np.ndarray:
    """Metric trace of theta's (1,1)-part against the Hermitian form omega.

    ``det`` may supply ``omega.det()`` when the caller already holds it.
    """
    _check_grid(omega.grid, theta.grid)
    wm = omega.grid.mixed_weight[..., None]
    if det is None:
        det = omega.det()
    num = (omega.g22 * theta.g11 + omega.g11 * theta.g22
           - 2.0 * np.real(np.conj(omega.g12) * theta.g12) * wm)
    return num / det


def contract_v(theta):
    """Contractions with the circle generator.

    For a 2-form returns the components of i_V theta together with
    i_{JV} i_V theta; for a top form returns the spatial density eta defined
    by  i_{JV} i_V theta = 4 eta.
    """
    if isinstance(theta, TopFormP):
        return ScalarFieldP(theta.grid, 0.5 * theta.t)
    z = -theta.g12
    if theta.b20 is not None:
        z = z - 1j * theta.b20
    return VContraction(theta.grid, z, -theta.g22, 2.0 * theta.g22)


# ---------------------------------------------------------------------------
# base quadrature and gradients
# ---------------------------------------------------------------------------


def integrate_m(f, volume: Form11M) -> float:
    """Integral of f over M against a positive (1,1)-form."""
    if not volume.is_positive():
        raise ValueError("volume form must be positive")
    vals = f.values if isinstance(f, ScalarFieldM) else np.asarray(f, dtype=float)
    g = volume.grid
    return float(np.sum(vals * volume.h * g.spatial_quad_weights))


def grad_pair(f: ScalarFieldM, g: ScalarFieldM, metric: Form11M) -> ScalarFieldM:
    """Pointwise inner product of gradients with respect to ``metric``.

    2 H^{-1} Re(f_z conj(g_z)); grad_pair(f, f) = |grad f|^2 and the
    exponential identity De^f = e^f(Df + |grad f|^2/2) holds.
    """
    _check_grid(f.grid, g.grid)
    _check_grid(f.grid, metric.grid)
    if not metric.is_positive():
        raise ValueError("metric must be positive")
    grid = f.grid
    df = grid.dz_stripped(f.values)
    dg = grid.dz_stripped(g.values)
    val = 2.0 * np.real(df * np.conj(dg)) * grid.mixed_weight / metric.h
    return ScalarFieldM(grid, val)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def interior_norms(values, mask):
    """(sup, rms) of |values| over a boolean mask."""
    r = np.abs(np.asarray(values))[mask]
    return float(np.max(r)), float(np.sqrt(np.mean(r * r)))
