"""Lifting a path of potentials on the base to an invariant structure upstairs.

Given a uniformly sampled path psi_t with sigma + dd^c psi_t > 0, the lift

* shifts the path by a profile a_t so that the second time derivative is
  everywhere at most -2 (strict concavity),
* inverts  d psi_t / dt = l/2  fiberwise for t = mu(x, l) on a realized
  window of the log-fiber coordinate, and
* assembles phi(x, l) = psi_mu(x) - (mu/2) l with c = 0.

Reductions of the lifted structure reproduce the (shifted) path up to a
spatial constant per level; positivity of the lift is equivalent to the
concavity sign, and both are certified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .curvature import scal_m
from .errors import HypothesisViolated, NonConcave, OutOfWindow
from .fields import ScalarFieldP
from .flows import FlowPath, time_derivative
from .interp import newton_decreasing
from .reduction import reduced_potential
from .reports import ResidualReport
from .structure import KahlerData, assemble


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


def concavity_shift(path: FlowPath, slack=1e-9):
    """Shift the path by a_t so its discrete second time derivative is <= -2.

    a_t = -t^2 - double integral of the running spatial sup of psi'' (trapezoid,
    piecewise linear in t), topped up by an exact quadratic if the discrete
    recheck still leaves an excess.  Returns (shifted path, a_t samples).
    """
    if path.n_samples < 5:
        raise ValueError("need at least 5 samples to shift a path")
    if not path.is_uniform():
        raise ValueError("samples must be uniform in time")
    ts = path.ts
    d2 = path.time_derivative(2)
    sup = np.max(d2.reshape(path.n_samples, -1), axis=1)
    inner = cumulative_trapezoid(sup, ts, initial=0.0)
    a = -ts * ts - cumulative_trapezoid(inner, ts, initial=0.0)

    d2a = time_derivative(ts, a, 2)
    excess = float(np.max(d2 + d2a.reshape(-1, *([1] * (d2.ndim - 1)))) + 2.0)
    if excess > 0.0:
        # quadratic top-up is differentiated exactly by the same stencils
        a = a - 0.5 * (excess + slack) * ts * ts
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

    _BLOCK = 8192  # (node, level) pairs per Newton block

    def __init__(self, path: FlowPath):
        ts = self.ts = path.ts
        y = path.psis.reshape(path.n_samples, -1)
        c = CubicSpline(ts, y, axis=0).c  # (4, nseg, nspace)
        self._n = y.shape[1]
        d = ts[-1] - ts[-2]
        self.v0, self.k0 = c[2, 0], 2 * c[1, 0]
        self.v1 = (3 * c[0, -1] * d + 2 * c[1, -1]) * d + c[2, -1]
        self.k1 = 6 * c[0, -1] * d + 2 * c[1, -1]
        y1 = ((c[0, -1] * d + c[1, -1]) * d + c[2, -1]) * d + c[3, -1]
        zero = np.zeros(self._n)
        left = np.stack([zero, c[1, 0], self.v0, c[3, 0]])[:, None]
        right = np.stack([zero, 0.5 * self.k1, self.v1, y1])[:, None]
        coef = np.concatenate([left, c, right], axis=1)  # (4, nseg + 2, nspace)
        self._table = np.ascontiguousarray(coef.transpose(1, 2, 0)).reshape(-1, 4)
        self._origin = np.concatenate([ts[:1], ts[:-1], ts[-1:]])

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

    def _at(self, t, deriv):
        t = np.asarray(t, dtype=float)
        node = np.arange(self._n).reshape((-1,) + (1,) * (t.ndim - 1))
        return self._poly(*self._local(t, node), deriv)

    def value(self, t):
        return self._at(t, 0)

    def velocity(self, t):
        return self._at(t, 1)

    def curvature(self, t):
        return self._at(t, 2)

    def solve_velocity(self, target, tol=1e-13, max_iter=120):
        """Roots t of velocity(t) = target[j] for every node and level j.

        velocity is strictly decreasing, so each root is unique on the
        extended line.  Every (node, level) pair is one item of
        :func:`newton_decreasing`, bracketed by the sampled range stretched
        through the linear extensions where the target lies beyond the end
        velocities, with tolerance tol * max(1, |target|).  Pairs are solved
        in fixed blocks, so temporaries stay small.

        Returns the (nodes, levels) roots and the largest |velocity - target|;
        raises NotConverged if a pair is above its tolerance after
        ``max_iter`` Newton steps.
        """
        target = np.atleast_1d(np.asarray(target, dtype=float))
        t0, t1 = self.ts[0], self.ts[-1]
        roots = np.empty(self._n * target.size)
        worst = 0.0
        for start in range(0, roots.size, self._BLOCK):
            pos = np.arange(start, min(start + self._BLOCK, roots.size))
            node, lev = np.divmod(pos, target.size)
            tgt = target[lev]
            lo = np.full(pos.size, t0)
            hi = np.full(pos.size, t1)
            need = self.v0[node] < tgt
            lo[need] = t0 + (tgt[need] - self.v0[node[need]]) \
                / self.k0[node[need]] - 1e-3
            need = self.v1[node] > tgt
            hi[need] = t1 + (tgt[need] - self.v1[node[need]]) \
                / self.k1[node[need]] + 1e-3

            def residual(x, items):
                rows, d = self._local(x, node[items])
                return (self._poly(rows, d, 1) - tgt[items],
                        self._poly(rows, d, 2))

            roots[pos], r, _ = newton_decreasing(
                residual, lo, hi, tol * np.maximum(1.0, np.abs(tgt)), max_iter,
                "Legendre inversion")
            worst = max(worst, float(np.max(np.abs(r))))
        return roots.reshape(self._n, target.size), worst


def realized_window(path: FlowPath, band=(0.15, 0.85), pad=0.02):
    """Fiber window realized by the path: the union of the per-level bands
    2 * [min_x, max_x] of the time velocity over the middle of the time range,
    padded, and capped by the 5%-shrunk global velocity range."""
    d1 = path.time_derivative(1)
    flat = d1.reshape(path.n_samples, -1)
    n = path.n_samples
    k0, k1 = int(band[0] * (n - 1)), int(np.ceil(band[1] * (n - 1)))
    w_lo = 2.0 * float(np.min(flat[k0:k1 + 1]))
    w_hi = 2.0 * float(np.max(flat[k0:k1 + 1]))
    span = w_hi - w_lo
    w_lo -= pad * span
    w_hi += pad * span
    g_lo, g_hi = 2.0 * float(np.min(flat)), 2.0 * float(np.max(flat))
    g_span = g_hi - g_lo
    cap_lo, cap_hi = g_lo + 0.05 * g_span, g_hi - 0.05 * g_span
    lo, hi = max(w_lo, cap_lo), min(w_hi, cap_hi)
    if not lo < hi:
        lo, hi = w_lo, w_hi
    return lo, hi


def legendre_lift(path: FlowPath, n_l=129, margin=4, a_t=None) -> LiftResult:
    """Invert a strictly concave path into an invariant structure upstairs.

    Requires d^2 psi/dt^2 < 0 at every sample (run :func:`concavity_shift`
    first; its profile may be passed through ``a_t`` for the record); beyond
    the sampled time range the path is continued with constant concavity so
    the realized window is covered at every node.
    """
    if not path.is_uniform():
        raise ValueError("samples must be uniform in time")
    d2 = path.time_derivative(2)
    cmax = float(np.max(d2))
    if cmax >= 0.0:
        raise NonConcave(f"path is not strictly concave (max psi'' = {cmax:.3e})")

    lo, hi = realized_window(path)
    if not lo < hi:
        raise OutOfWindow("realized fiber window is empty")
    grid = replace(path.grid, n_l=n_l, l_min=lo, l_max=hi, margin=margin)

    splines = _TimeSplines(path)
    mu, worst = splines.solve_velocity(0.5 * grid.l)
    phi = splines.value(mu) - 0.5 * mu * grid.l
    curv = splines.curvature(mu)
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


def admissible_taus(path: FlowPath, lift: LiftResult, max_count=7, pad=0.01):
    """Sample times whose full spatial velocity band fits the lift window."""
    d1 = path.time_derivative(1).reshape(path.n_samples, -1)
    lo, hi = lift.window
    span = hi - lo
    good = []
    skip = 2 if path.n_samples >= 7 else 1
    for k in range(skip, path.n_samples - skip):
        b_lo, b_hi = 2.0 * float(np.min(d1[k])), 2.0 * float(np.max(d1[k]))
        if b_lo > lo + pad * span and b_hi < hi - pad * span:
            good.append(float(path.ts[k]))
    if not good:
        raise OutOfWindow("no sample time has its band inside the lift window")
    stride = max(len(good) // max_count, 1)
    return np.array(good[::stride][:max_count])


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
    for tau in np.asarray(taus, dtype=float):
        red = reduced_potential(lift.data, tau)
        target = splines.value(np.full(nspace, tau)).reshape(grid.spatial_shape)
        gap = red.psi_tau.values - target
        gap = gap - np.mean(gap[mask])
        g = float(np.max(np.abs(gap[mask])))
        sup = max(sup, g)
        sq.append(np.mean(gap[mask] ** 2))
        by_tau.append([float(tau), g])

        from .fields import ddc_m

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
