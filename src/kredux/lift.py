"""Lifting a path of potentials on the base to an invariant structure upstairs.

Given a sampled path psi_t with sigma + dd^c psi_t > 0, the lift

* shifts the path by a profile a_t so that the second time derivative is
  everywhere at most -2 (strict concavity),
* inverts  d psi_t / dt = l/2  fiberwise for t = mu(x, l) on a realized
  window of the log-fiber coordinate, by guarded Newton on the pieces of the
  path's quintic spline in time, and
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
from .flows import FlowPath, time_spline
from .interp import poly_eval
from .reduction import reduced_potentials
from .reports import ResidualReport
from .structure import KahlerData, assemble

_SHIFT_SLACK = 1e-9  # the concavity top-up leaves psi'' <= -2 - _SHIFT_SLACK
_INVERSION_TOL = 1e-13  # Legendre roots: |velocity - l/2| <= tol max(1, |l/2|)
_INVERSION_STEPS = 60  # Newton update cap per root; bisection halves to eps
_BAND_LO, _BAND_HI = 0.15, 0.85  # time range whose velocities set the window
_WINDOW_PAD = 0.02  # padding of the realized window, a share of its span
_LIFT_MARGIN = 4  # residual-norm margin of the lifted grid
_MAX_TAUS = 7  # admissible levels at most
_TAU_PAD = 0.01  # an admissible band is this share of the window inside it


@dataclass(frozen=True)
class LiftResult:
    data: KahlerData
    window: tuple
    mu_solved: ScalarFieldP
    max_inversion_residual: float
    inversion_steps: int  # the most Newton updates any root took
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
    """Shift the path by a_t so its spline's second time derivative is <= -2.

    a_t = -t^2 - double integral of the running spatial sup of psi'' (trapezoid,
    piecewise linear in t), topped up by an exact quadratic if the discrete
    recheck still leaves an excess.  Returns (shifted path, a_t samples).
    """
    ts = path.ts
    d2 = path.time_derivative(2)
    sup = np.max(d2.reshape(path.n_samples, -1), axis=1)
    inner = _cumulative_trapezoid(sup, ts)
    a = -ts * ts - _cumulative_trapezoid(inner, ts)

    d2a = time_spline(ts, a)(ts, 2)
    excess = float(np.max(d2 + d2a.reshape(-1, *([1] * (d2.ndim - 1)))) + 2.0)
    if excess > 0.0:
        # the quintic reproduces the quadratic top-up exactly
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
    """Per-node quintic splines of a shifted path in t, with the quadratic
    constant-concavity extension beyond the sampled range.

    Column ``s * nspace + node`` of one coefficient table (6 rows, highest
    degree first) holds segment s of a node as a quintic in
    t - ts[max(s - 1, 0)]; the first and last segments are the quadratic
    extensions before t_0 and from t_end on, so any array of times (nodes on
    its first axis) is evaluated with one gather.
    """

    def __init__(self, spline):
        ts = self.ts = spline.x
        c = spline.c.reshape(6, ts.size - 1, -1)  # (6, nseg, nspace)
        self._n = c.shape[2]
        coef = np.zeros((6, ts.size + 1, self._n))  # (6, nseg + 2, nspace)
        coef[:, 1:-1] = c
        coef[3:, 0] = c[3:, 0]
        for nu, f in enumerate((1.0, 1.0, 0.5)):
            coef[5 - nu, -1] = f * poly_eval(c[:, -1], ts[-1] - ts[-2], nu)
        self._table = coef.reshape(6, -1)
        self._velocity = self._table[:5] * np.arange(5.0, 0, -1)[:, None]
        self._edges = np.concatenate([[-np.inf], ts, [np.inf]])
        # (nspace, nknots) velocities at the knots, decreasing along a row
        self._knot_velocity = coef[4, 1:].T.copy()

    def at(self, t, *derivs):
        """The given derivatives at times ``t`` (nodes on the first axis),
        from one gather of the table."""
        node = np.arange(self._n).reshape((-1,) + (1,) * (t.ndim - 1))
        seg = np.searchsorted(self.ts, t, side="right")
        rows = np.take(self._table, seg * self._n + node, axis=1)
        d = t - self.ts[np.maximum(seg - 1, 0)]
        return tuple(poly_eval(rows, d, k) for k in derivs)

    def solve_velocity(self, target):
        """Roots t of velocity(t) = target[j] for every node and level j.

        velocity is strictly decreasing, so each root is unique on the
        extended line and lies on the segment whose knot velocities bracket
        the target.  Guarded Newton runs on that segment's velocity from its
        secant point (from its knot on the linear extensions): the bracket
        follows the residual's sign, and a step that leaves it or is not
        finite bisects it.  A root stops once its residual is within 4 eps
        of the velocity's size there (1, the target, the knot velocities) or
        its step within eps |t|; after at most _INVERSION_STEPS updates every
        root is checked against _INVERSION_TOL * max(1, |target|).

        Returns the (nodes, levels) roots, the largest |velocity - target|
        and the most updates a root took; NotConverged if a root is above
        its tolerance, as where the velocity does not decrease.
        """
        target = np.atleast_1d(np.asarray(target, dtype=float))
        ts, kv = self.ts, self._knot_velocity
        # per node, the knots whose velocity exceeds the target: the table
        # segment that brackets it (0 and nknots are the extensions)
        seg = np.stack([np.searchsorted(-v, -target) for v in kv])
        node = np.arange(self._n)[:, None]
        lo, hi = self._edges[seg], self._edges[seg + 1]
        origin = np.where(seg == 0, hi, lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vel = np.take(self._velocity, seg * self._n + node, axis=1)
            v_b = np.take(kv, node * ts.size + np.minimum(seg, ts.size - 1))
            # the velocity's rounding on the segment: where a root stops
            eps = np.finfo(float).eps
            stop = 4 * eps * np.maximum(np.maximum(1.0, np.abs(target)),
                                        np.maximum(np.abs(vel[4]), np.abs(v_b)))
            x = lo + (vel[4] - target) / (vel[4] - v_b) * (hi - lo)
            x = np.where(np.isfinite(hi - lo), x, origin)
            move = np.ones(x.shape, dtype=bool)
            for steps in range(_INVERSION_STEPS + 1):
                r = poly_eval(vel, x - origin) - target
                move &= np.abs(r) > stop
                if steps == _INVERSION_STEPS or not move.any():
                    break
                np.copyto(lo, x, where=r > 0)
                np.copyto(hi, x, where=r < 0)
                x_new = x - r / poly_eval(vel, x - origin, 1)
                move &= np.abs(x_new - x) > eps * np.abs(x)
                out = ~((x_new > lo) & (x_new < hi))
                x_new[out] = 0.5 * (lo[out] + hi[out])
                np.copyto(x, x_new, where=move)
        resid = np.abs(r)
        bad = ~(resid <= _INVERSION_TOL * np.maximum(1.0, np.abs(target)))
        if bad.any():
            raise NotConverged(
                f"Legendre inversion: {int(np.sum(bad))} of {bad.size} roots "
                f"above tolerance (worst residual {float(np.max(resid)):.3e})")
        return x, float(np.max(resid)), steps


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


def legendre_lift(path: FlowPath, n_l=129) -> LiftResult:
    """Invert a strictly concave path into an invariant structure upstairs.

    Requires d^2 psi/dt^2 < 0 at every sample (run :func:`concavity_shift`
    first); beyond the sampled time range the path is continued with constant
    concavity so the realized window is covered at every node.
    """
    d2 = path.time_derivative(2)
    cmax = float(np.max(d2))
    if cmax >= 0.0:
        raise NonConcave(f"path is not strictly concave (max psi'' = {cmax:.3e})")

    lo, hi = realized_window(path)
    if not lo < hi:
        raise OutOfWindow("realized fiber window is empty")
    grid = replace(path.grid, n_l=n_l, l_min=lo, l_max=hi, margin=_LIFT_MARGIN)

    splines = _TimeSplines(path.spline)
    mu, worst, steps = splines.solve_velocity(0.5 * grid.l)
    psi, curv = splines.at(mu, 0, 2)
    phi = psi - 0.5 * mu * grid.l
    mu = mu.reshape(grid.p_shape)

    K = assemble(
        (type(path.sigma))(grid, path.sigma.h),
        ScalarFieldP(grid, phi.reshape(grid.p_shape)), 0.0)

    concavity_ok = bool(np.all(curv < 0.0))
    agrees = concavity_ok == K.certificate.positive
    return LiftResult(K, (lo, hi), ScalarFieldP(grid, mu), worst, steps,
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
    sup = 0.0
    sq = []
    form_gap = 0.0
    by_tau = []
    taus = np.asarray(taus, dtype=float)
    for tau, red in zip(taus, reduced_potentials(lift.data, taus)):
        target = path.spline(tau)
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
    dq = time_spline(path.ts, q)(path.ts, 1)
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
