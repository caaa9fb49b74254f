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

Every field (``ScalarFieldP``, ``ScalarFieldM``, ``Form11M``) and ``Form11P``
component passes one check, ``_checked``, and fields follow one arithmetic
rule: ``+ - * /`` take a scalar, an array or a same-type field on one grid.
An array or numpy scalar on the left defers to the field, so ``array + field``
and ``array * field`` are fields, and ``array - field`` and ``array / field``
raise ``TypeError``.

Ownership: an operator writes only into arrays it allocated itself.  It
allocates each output component once and accumulates into it in place, with
the same operands in the same order as the plain expression, so the numbers
do not depend on how the work is staged.  It never writes into its arguments
but one: a form the caller has just built, handed to ``d_wedge_dc`` as
``into``, which takes each component as it is finished.  Arrays a structure
keeps (``KahlerData.cached``) are read-only.  In-place sums
``theta += other`` are likewise for forms the caller has just built.

Shared slopes: ``jv_apply`` and ``ddc_p`` (and the checks built on them)
accept the fiber slope ``d_l f`` of their field as ``dl_f``, so that callers
holding it take the stencil once.  Given or computed, the result is the
same bits; a slope passed in is only read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grids import TestbedGrid


def _check_grid(a, b):
    if a != b:
        raise ValueError("fields live on different grids")


def _all_finite(a):
    """Whether every entry of ``a`` is finite.  A complex array, contiguous
    as every complex component is, is tested through its real view: numpy's
    complex ``isfinite`` takes about twice as long as its real one over the
    same bytes."""
    return bool(np.isfinite(a.view(float) if a.dtype.kind == "c" else a).all())


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


def _checked(values, dtype, shape, owner):
    """``values`` as a contiguous array of ``dtype``; ValueError naming
    ``owner`` unless it has ``shape`` and finite entries.  The one check of
    every field and form component."""
    a = np.ascontiguousarray(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"{owner} values of shape {a.shape} do not match "
                         f"grid shape {shape}")
    if not _all_finite(a):
        raise ValueError(f"{owner} contains non-finite values")
    return a


class _FieldBase:
    """A checked array on a grid: on the spatial grid when ``on_base``, else
    on (spatial grid) x (fiber axis).  ``+ - * /`` combine it with a scalar,
    an array, or a field of its own type on the same grid."""

    __slots__ = ("grid", "values")
    __array_ufunc__ = None  # numpy hands ``array op field`` to the field
    on_base = True

    def __init__(self, grid: TestbedGrid, values):
        self.grid = grid
        self.values = _checked(
            values, float, grid.spatial_shape if self.on_base else grid.p_shape,
            type(self).__name__)

    def _wrap(self, values):
        return type(self)(self.grid, values)

    def _combine(self, other, op):
        if isinstance(other, _FieldBase):
            if type(other) is not type(self):
                raise TypeError(f"cannot combine {type(self).__name__} with "
                                f"{type(other).__name__}")
            _check_grid(self.grid, other.grid)
            other = other.values
        return self._wrap(op(self.values, other))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, operator.truediv)


class ScalarFieldP(_FieldBase):
    """Invariant scalar f(x, l) sampled on (spatial grid) x (fiber axis)."""

    __slots__ = ()
    on_base = False


class ScalarFieldM(_FieldBase):
    """Scalar on the base, sampled on the spatial grid."""

    __slots__ = ()


class Form11M(_FieldBase):
    """Real (1,1)-form on M: coefficient ``h`` of i dz /\\ dzbar."""

    __slots__ = ()

    @property
    def h(self):
        return self.values

    def is_positive(self):
        return bool(np.all(self.values > 0))


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
        parts = [("g11", float), ("g12", complex), ("g22", float)]
        if self.b20 is not None:
            parts.append(("b20", complex))
        for name, dtype in parts:
            object.__setattr__(self, name, _checked(
                getattr(self, name), dtype, self.grid.p_shape,
                f"Form11P.{name}"))

    def __add__(self, other):
        _check_grid(self.grid, other.grid)
        return Form11P(self.grid, self.g11 + other.g11, self.g12 + other.g12,
                       self.g22 + other.g22, _b20_sum(self.b20, other.b20))

    def __sub__(self, other):
        _check_grid(self.grid, other.grid)
        return Form11P(self.grid, self.g11 - other.g11, self.g12 - other.g12,
                       self.g22 - other.g22, _b20_diff(self.b20, other.b20))

    def __iadd__(self, other):
        """Add ``other`` into this form's g11, g12 and g22, which must be
        arrays the caller allocated, never cached ones.  A b20 is never
        written in place: the result takes a new sum, or either side's."""
        _check_grid(self.grid, other.grid)
        for mine, theirs in zip(self._pure(), other._pure()):
            mine += theirs
        return self._with_b20(_b20_sum(self.b20, other.b20))

    def __isub__(self, other):
        """Subtract ``other`` in place, as ``__iadd__`` adds it."""
        _check_grid(self.grid, other.grid)
        for mine, theirs in zip(self._pure(), other._pure()):
            mine -= theirs
        return self._with_b20(_b20_diff(self.b20, other.b20))

    def _pure(self):
        return self.g11, self.g12, self.g22

    def _with_b20(self, b20):
        if b20 is self.b20:
            return self
        return Form11P(self.grid, self.g11, self.g12, self.g22, b20)

    def __mul__(self, a):
        b = None if self.b20 is None else self.b20 * a
        return Form11P(self.grid, self.g11 * a, self.g12 * a, self.g22 * a, b)

    __rmul__ = __mul__

    def mixed_sq(self):
        """|g12|^2 in invariant units."""
        sq = _abs_sq(self.g12)
        sq *= self.grid.mixed_weight[..., None]
        return sq

    def det(self):
        """Determinant of the Hermitian component matrix (pure-type part)."""
        msq = self.mixed_sq()
        d = self.g11 * self.g22
        d -= msq
        return d

    def min_eigenvalue(self):
        """Smallest eigenvalue of the 2x2 Hermitian component matrix, per node:
        (g11 + g22)/2 - sqrt((g11 - g22)^2/4 + |g12|^2)."""
        gap = self.mixed_sq()
        half_diff_sq = self.g11 - self.g22
        np.square(half_diff_sq, out=half_diff_sq)
        half_diff_sq *= 0.25
        gap += half_diff_sq
        del half_diff_sq
        np.sqrt(gap, out=gap)
        ev = self.g11 + self.g22
        ev *= 0.5
        ev -= gap
        return ev

    def max_magnitude(self):
        """Largest magnitude over all frame components, per node, in invariant
        units."""
        sw = np.sqrt(self.grid.mixed_weight)[..., None]
        out = np.abs(self.g11)
        mag = np.abs(self.g22)
        np.maximum(out, mag, out=out)
        for z in (self.g12, self.b20):
            if z is not None:
                np.abs(z, out=mag)
                mag *= sw
                np.maximum(out, mag, out=out)
        return out


def _abs_sq(z):
    """Re(z)^2 + Im(z)^2, in one new array."""
    sq = z.real ** 2
    sq += z.imag ** 2
    return sq


def _b20_sum(a, b):
    """(2,0) part of a sum; a side without one adds nothing."""
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _b20_diff(a, b):
    """(2,0) part of a difference; a side without one adds nothing."""
    if b is None:
        return a
    if a is None:
        return -b
    return a - b


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------


def jv_apply(f: ScalarFieldP, dl_f=None) -> ScalarFieldP:
    """Action of the rotated circle generator on invariant fields: -2 df/dl.

    ``dl_f`` may supply the fiber slope ``f.grid.d_l(f.values, 1)`` when the
    caller already holds it; the result is the same bits.
    """
    if dl_f is None:
        d = f.grid.d_l(f.values, 1)
        d *= -2.0
    else:
        d = np.multiply(dl_f, -2.0)
    return f._wrap(d)


def ddc_m(f, grid=None) -> Form11M:
    """dd^c on the base: H = 2 f_{z zbar}."""
    if isinstance(f, ScalarFieldM):
        grid = f.grid
        vals = f.values
    else:
        vals = np.asarray(f, dtype=float)
    return Form11M(grid, 2.0 * grid.dzbar_dz(vals))


def ddc_p(f: ScalarFieldP, dl_f=None) -> Form11P:
    """dd^c of an invariant function, in frame components; the fiber block
    uses the dedicated second-derivative stencil.  ``dl_f`` may supply the
    fiber slope, as for :func:`jv_apply`."""
    g = f.grid
    g11 = g.dzbar_dz(f.values)
    g11 *= 2.0
    g12 = g.dz_stripped(g.d_l(f.values, 1) if dl_f is None else dl_f)
    g12 *= 2.0
    g22 = g.d_l(f.values, 2)
    g22 *= 2.0
    return Form11P(g, g11, g12, g22)


def d_wedge_dc(g_field: ScalarFieldP, K, into: Form11P | None = None) -> Form11P:
    """The 2-form d(g d^c mu) = dg /\\ d^c mu + g dd^c mu for an invariant g
    and the moment map mu of the structure K, whose dd^c mu is kept.

    The gradient of mu is read off the structure: omega's mixed component is
    -dz mu and |V|^2 = -2 d_l mu, exactly as ``assemble`` builds them.

    Carries a (2,0) part whenever the fiber and spatial gradients of g and mu
    fail to be proportional.

    ``into`` may name a form the caller has just built.  Each of g11, g22
    and g12 is then added into its array as soon as it is finished, and
    freed before the next is built, and ``into`` plus d(g d^c mu) is
    returned: the same bits as ``into += d_wedge_dc(g_field, K)``, without
    the whole form alive beside ``into``.  A read-only ``into`` raises, as
    ``+=`` does.
    """
    grid = g_field.grid
    _check_grid(grid, K.mu.grid)
    if into is not None:
        _check_grid(grid, into.grid)
    done = {}

    def finish(name, part):
        if into is None:
            done[name] = part
        else:
            mine = getattr(into, name)
            mine += part

    gv = g_field.values
    neg_dzmu = K.omega.g12
    dlmu = -0.5 * K.vsq.values
    ddc_mu = K.ddc_mu()
    dzg = np.asarray(grid.dz_stripped(gv), dtype=complex)  # real on radial
    dlg = grid.d_l(gv, 1)
    # g11 = 2 Re(dzg conj(dzmu)) wm + g ddc_mu.g11, scratch in ``tmp``
    tmp = np.conjugate(neg_dzmu)
    np.multiply(dzg, tmp, out=tmp)
    g11 = np.multiply(-2.0, tmp.real)
    g11 *= grid.mixed_weight[..., None]
    np.multiply(gv, ddc_mu.g11, out=tmp.real)
    g11 += tmp.real
    finish("g11", g11)
    del g11
    # g22 = 2 dlg dlmu + g ddc_mu.g22
    g22 = np.multiply(2.0, dlg)
    g22 *= dlmu
    np.multiply(gv, ddc_mu.g22, out=tmp.real)
    g22 += tmp.real
    finish("g22", g22)
    del g22
    # g12 = dzg dlmu + dzmu dlg + g ddc_mu.g12 and
    # b20 = -i (dzg dlmu - dlg dzmu), built in dzg's array
    dzg *= dlmu
    np.multiply(neg_dzmu, dlg, out=tmp)
    del dlmu, dlg
    g12 = dzg - tmp
    dzg += tmp
    np.multiply(gv, ddc_mu.g12, out=tmp)
    g12 += tmp
    del tmp
    finish("g12", g12)
    del g12
    b20 = np.multiply(-1j, dzg, out=dzg)
    if into is None:
        return Form11P(grid, done["g11"], done["g12"], done["g22"], b20)
    return into._with_b20(_b20_sum(into.b20, b20))


# ---------------------------------------------------------------------------
# contractions and wedge algebra
# ---------------------------------------------------------------------------


def wedge_square(theta: Form11P) -> np.ndarray:
    """theta /\\ theta as the coefficient of the top form
    (i dz /\\ dzbar) /\\ dl /\\ dtheta."""
    t = theta.det()
    t *= 2.0
    if theta.b20 is not None:
        b = _abs_sq(theta.b20)
        b *= 2.0
        b *= theta.grid.mixed_weight[..., None]
        t += b
    return t


def trace_against(omega: Form11P, theta: Form11P, det=None) -> np.ndarray:
    """Metric trace of theta's (1,1)-part against the Hermitian form omega.

    ``det`` may supply ``omega.det()`` when the caller already holds it.
    """
    _check_grid(omega.grid, theta.grid)
    if det is None:
        det = omega.det()
    num = omega.g22 * theta.g11
    num += omega.g11 * theta.g22
    # the mixed pairing 2 Re(conj(omega.g12) theta.g12) wm
    cross = np.conjugate(omega.g12)
    cross *= theta.g12
    cross = np.multiply(2.0, cross.real, out=cross.real)
    cross *= omega.grid.mixed_weight[..., None]
    num -= cross
    num /= det
    return num


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
    dg = df if g is f else grid.dz_stripped(g.values)
    val = 2.0 * np.real(df * np.conj(dg)) * grid.mixed_weight / metric.h
    return ScalarFieldM(grid, val)

