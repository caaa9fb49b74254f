"""Lifting a path of potentials on the base to an invariant structure upstairs.

Given a uniformly sampled path psi_t with sigma + dd^c psi_t > 0, the lift

* shifts the path by a profile a_t so that the second time derivative is
  everywhere at most -2 (strict concavity),
* inverts  d psi_t / dt = l/2  fiberwise for t = mu(x, l) on a realized
  window of the log-fiber coordinate, in closed form on the pieces of the
  path's cubic spline in time, and
* assembles phi(x, l) = psi_mu(x) - (mu/2) l with c = 0.

Reductions of the lifted structure reproduce the (shifted) path up to a
spatial constant per level; positivity of the lift is equivalent to the
concavity sign, and both are certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curvature import scal_m
from .errors import HypothesisViolated, NonConcave, NotConverged, OutOfWindow
from .fields import ScalarFieldP, ddc_m
from .flows import FlowPath, time_derivative
from .interp import NotAKnotSpline
from .reduction import reduced_potentials
from .reports import ResidualReport
from .structure import KahlerData, assemble

_SHIFT_SLACK = 1e-9  # the concavity top-up leaves psi'' <= -2 - _SHIFT_SLACK
_INVERSION_TOL = 1e-13  # Legendre roots: |velocity - l/2| <= tol max(1, |l/2|)
_BAND_LO, _BAND_HI = 0.15, 0.85  # time range whose velocities set the window
_WINDOW_PAD = 0.02  # padding of the realized window, a share of its span
_LIFT_MARGIN = 4  # residual-norm margin of the lifted grid
_MAX_TAUS = 7  # admissible levels at most
_TAU_PAD = 0.01  # an admissible band is this share of the window inside it


@dataclass(frozen=True)
class LiftResult:
    data: KahlerData
    window: tuple
    a_t: np.ndarray | None
    ts: np.ndarray
    mu_solved: ScalarFieldP
    max_inversion_residual: float
    concavity_max: float
    criterion_agrees: bool


# ---------------------------------------------------------------------------
# concavity shift
# ---------------------------------------------------------------------------


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over ``x``, starting at 0; the
    same floating-point operations as scipy's ``cumulative_trapezoid``."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def concavity_shift(path: FlowPath):
    """Shift the path by a_t so its discrete second time derivative is <= -2.

    a_t = -t^2 - double integral of the running spatial sup of psi'' (trapezoid,
    piecewise linear in t), topped up by an exact quadratic if the discrete
    recheck still leaves an excess.  Returns (shifted path, a_t samples).
    """
    ts = path.ts
    d2 = path.time_derivative(2)
    sup = np.max(d2.reshape(path.n_samples, -1), axis=1)
    inner = _cumulative_trapezoid(sup, ts)
    a = -ts * ts - _cumulative_trapezoid(inner, ts)

    d2a = time_derivative(ts, a, 2)
    excess = float(np.max(d2 + d2a.reshape(-1, *([1] * (d2.ndim - 1)))) + 2.0)
    if excess > 0.0:
        # quadratic top-up is differentiated exactly by the same stencils
        a = a - 0.5 * (excess + _SHIFT_SLACK) * ts * ts
    shifted = FlowPath(path.grid, path.sigma, path.kind + "+shift", ts,
                       path.psis + a.reshape(-1, *([1] * (path.psis.ndim - 1))),
                       dict(path.normalization, shift="a_t"),
                       list(path.dt_history))
    return shifted, a


# ---------------------------------------------------------------------------
# fiberwise Legendre inversion
# ---------------------------------------------------------------------------


class _TimeSplines:
    """Per-node cubic splines of a shifted path in t, with the quadratic
    constant-concavity extension beyond the sampled range.

    Row ``s * nspace + node`` of one coefficient table holds segment s of a
    node as a cubic in t - origin[s]; the first and last segments are the
    quadratic extensions before t_0 and from t_end on, so any array of times
    (nodes on its first axis) is evaluated with one gather.
    """

    def __init__(self, path: FlowPath):
        ts = self.ts = path.ts
        y = path.psis.reshape(path.n_samples, -1)
        c = NotAKnotSpline(ts, y).c  # (4, nseg, nspace)
        self._n = y.shape[1]
        d = ts[-1] - ts[-2]
        v1 = (3 * c[0, -1] * d + 2 * c[1, -1]) * d + c[2, -1]
        k1 = 6 * c[0, -1] * d + 2 * c[1, -1]
        y1 = ((c[0, -1] * d + c[1, -1]) * d + c[2, -1]) * d + c[3, -1]
        zero = np.zeros(self._n)
        left = np.stack([zero, c[1, 0], c[2, 0], c[3, 0]])[:, None]
        right = np.stack([zero, 0.5 * k1, v1, y1])[:, None]
        coef = np.concatenate([left, c, right], axis=1)  # (4, nseg + 2, nspace)
        self._table = np.ascontiguousarray(coef.transpose(1, 2, 0)).reshape(-1, 4)
        self._origin = np.concatenate([ts[:1], ts[:-1], ts[-1:]])
        # (nspace, nknots) velocities at the knots, decreasing along a row
        self._knot_velocity = np.concatenate([c[2], v1[None]]).T

    def _local(self, t, node):
        """Coefficient rows and local offsets for times ``t`` at ``node``."""
        seg = np.searchsorted(self.ts, t, side="right")
        return self._table[seg * self._n + node], t - self._origin[seg]

    @staticmethod
    def _poly(rows, d, deriv):
        a, b, c, e = np.moveaxis(rows, -1, 0)
        if deriv == 0:
            return ((a * d + b) * d + c) * d + e
        if deriv == 1:
            return (3 * a * d + 2 * b) * d + c
        return 6 * a * d + 2 * b

    def _at(self, t, *derivs):
        t = np.asarray(t, dtype=float)
        node = np.arange(self._n).reshape((-1,) + (1,) * (t.ndim - 1))
        rows, d = self._local(t, node)
        return tuple(self._poly(rows, d, k) for k in derivs)

    def value(self, t):
        return self._at(t, 0)[0]

    def velocity(self, t):
        return self._at(t, 1)[0]

    def value_and_curvature(self, t):
        """Value and second derivative, from one gather of the table."""
        return self._at(t, 0, 2)

    def solve_velocity(self, target):
        """Roots t of velocity(t) = target[j] for every node and level j.

        velocity is strictly decreasing, so each root is unique on the
        extended line and lies on the segment whose knot velocities bracket
        the target.  There the velocity is a quadratic A d^2 + B d + C in
        the local offset (linear on the extensions), and the root is its
        decreasing one, taken in the form d = 2C / (sqrt(B^2 - 4AC) - B),
        which has no cancellation.  Every root is checked through
        :meth:`velocity` against _INVERSION_TOL * max(1, |target|).

        Returns the (nodes, levels) roots and the largest |velocity - target|;
        raises NotConverged if a root is above its tolerance, which happens
        where the velocity does not decrease.
        """
        target = np.atleast_1d(np.asarray(target, dtype=float))
        # per node, the knots whose velocity exceeds the target: the table
        # segment that brackets it (0 and nknots are the extensions)
        seg = np.stack([np.searchsorted(-v, -target)
                        for v in self._knot_velocity])
        node = np.arange(self._n)[:, None]
        a, b, c, _ = np.moveaxis(self._table[seg * self._n + node], -1, 0)
        A, B, C = 3 * a, 2 * b, c - target
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = 2 * C / (np.sqrt(np.maximum(B * B - 4 * A * C, 0.0)) - B)
            roots = self._origin[seg] + d
            resid = np.abs(self.velocity(roots) - target)
        bad = ~(resid <= _INVERSION_TOL * np.maximum(1.0, np.abs(target)))
        if bad.any():
            raise NotConverged(
                f"Legendre inversion: {int(np.sum(bad))} of {bad.size} roots "
                f"above tolerance (worst residual {float(np.max(resid)):.3e})")
        return roots, float(np.max(resid))


def realized_window(path: FlowPath):
    """Fiber window realized by the path: the union of the per-level bands
    2 * [min_x, max_x] of the time velocity over the middle of the time range,
    padded, and capped by the 5%-shrunk global velocity range."""
    d1 = path.time_derivative(1)
    flat = d1.reshape(path.n_samples, -1)
    n = path.n_samples
    k0, k1 = int(_BAND_LO * (n - 1)), int(np.ceil(_BAND_HI * (n - 1)))
    w_lo = 2.0 * float(np.min(flat[k0:k1 + 1]))
    w_hi = 2.0 * float(np.max(flat[k0:k1 + 1]))
    span = w_hi - w_lo
    w_lo -= _WINDOW_PAD * span
    w_hi += _WINDOW_PAD * span
    g_lo, g_hi = 2.0 * float(np.min(flat)), 2.0 * float(np.max(flat))
    g_span = g_hi - g_lo
    cap_lo, cap_hi = g_lo + 0.05 * g_span, g_hi - 0.05 * g_span
    lo, hi = max(w_lo, cap_lo), min(w_hi, cap_hi)
    if not lo < hi:
        lo, hi = w_lo, w_hi
    return lo, hi


def legendre_lift(path: FlowPath, n_l=129, a_t=None) -> LiftResult:
    """Invert a strictly concave path into an invariant structure upstairs.

    Requires d^2 psi/dt^2 < 0 at every sample (run :func:`concavity_shift`
    first; its profile may be passed through ``a_t`` for the record); beyond
    the sampled time range the path is continued with constant concavity so
    the realized window is covered at every node.
    """
    d2 = path.time_derivative(2)
    cmax = float(np.max(d2))
    if cmax >= 0.0:
        raise NonConcave(f"path is not strictly concave (max psi'' = {cmax:.3e})")

    lo, hi = realized_window(path)
    if not lo < hi:
        raise OutOfWindow("realized fiber window is empty")
    grid = replace(path.grid, n_l=n_l, l_min=lo, l_max=hi, margin=_LIFT_MARGIN)

    splines = _TimeSplines(path)
    mu, worst = splines.solve_velocity(0.5 * grid.l)
    psi, curv = splines.value_and_curvature(mu)
    phi = psi - 0.5 * mu * grid.l
    mu = mu.reshape(grid.p_shape)

    K = assemble(
        (type(path.sigma))(grid, path.sigma.h),
        ScalarFieldP(grid, phi.reshape(grid.p_shape)), 0.0)

    concavity_ok = bool(np.all(curv < 0.0))
    agrees = concavity_ok == K.certificate.positive
    return LiftResult(K, (lo, hi),
                      None if a_t is None else np.asarray(a_t, dtype=float),
                      path.ts, ScalarFieldP(grid, mu), worst,
                      float(np.max(curv)), agrees)


def admissible_taus(path: FlowPath, lift: LiftResult):
    """Sample times whose full spatial velocity band fits the lift window."""
    d1 = path.time_derivative(1).reshape(path.n_samples, -1)
    lo, hi = lift.window
    span = hi - lo
    good = []
    skip = 2 if path.n_samples >= 7 else 1
    for k in range(skip, path.n_samples - skip):
        b_lo, b_hi = 2.0 * float(np.min(d1[k])), 2.0 * float(np.max(d1[k]))
        if b_lo > lo + _TAU_PAD * span and b_hi < hi - _TAU_PAD * span:
            good.append(float(path.ts[k]))
    if not good:
        raise OutOfWindow("no sample time has its band inside the lift window")
    stride = max(len(good) // _MAX_TAUS, 1)
    return np.array(good[::stride][:_MAX_TAUS])


def roundtrip_check(path: FlowPath, lift: LiftResult, taus) -> ResidualReport:
    """Reductions of the lift against the source path, up to the concavity
    shift and a spatial constant per level (both removed by spatial-mean
    matching); the reduced forms are compared directly as well."""
    grid = lift.data.grid
    mask = grid.interior_m()
    splines = _TimeSplines(path)
    nspace = int(np.prod(grid.spatial_shape))
    sup = 0.0
    sq = []
    form_gap = 0.0
    by_tau = []
    taus = np.asarray(taus, dtype=float)
    for tau, red in zip(taus, reduced_potentials(lift.data, taus)):
        target = splines.value(np.full(nspace, tau)).reshape(grid.spatial_shape)
        gap = red.psi_tau.values - target
        gap = gap - np.mean(gap[mask])
        g = float(np.max(np.abs(gap[mask])))
        sup = max(sup, g)
        sq.append(np.mean(gap[mask] ** 2))
        by_tau.append([float(tau), g])
        omega_path = path.sigma.h + ddc_m(target, path.grid).h
        form_gap = max(form_gap, float(np.max(np.abs(
            (red.omega_tau.h - omega_path)[mask]))))
    rep = ResidualReport("lift_roundtrip", grid.meta(), sup,
                         float(np.sqrt(np.mean(sq))), reduced_by_tau=by_tau)
    rep.extra["form_gap"] = form_gap
    rep.extra["inversion_residual"] = lift.max_inversion_residual
    return rep


def calabi_converse_w(path: FlowPath, h, C: float):
    """Candidate squared field strength along a scalar-curvature flow path:

        w = -C / d/dtau( scal(g_tau) - h(tau) ),

    which must be strictly positive under the monotone-velocity hypothesis.
    Raises HypothesisViolated listing the (time index, node) samples where the
    sign fails or the denominator degenerates.
    """
    if C <= 0:
        raise HypothesisViolated("the constant C must be positive", where=None)
    scals = np.array([scal_m(path.metric_at(k)).values
                      for k in range(path.n_samples)])
    hh = np.asarray(h(path.ts), dtype=float)
    q = scals - hh.reshape(-1, *([1] * (scals.ndim - 1)))
    dq = time_derivative(path.ts, q, 1)
    tiny = 1e-10 * (1.0 + float(np.max(np.abs(scals))))
    bad = (dq >= -tiny)
    if np.any(bad):
        where = np.argwhere(bad)
        raise HypothesisViolated(
            f"velocity sign hypothesis fails at {len(where)} samples",
            where=where)
    w = -C / dq
    rep = ResidualReport("calabi_converse_w", path.grid.meta(),
                         float(np.max(w)), float(np.sqrt(np.mean(w * w))),
                         extra={"min_w": float(np.min(w))})
    return w, rep
