"""Fiberwise interpolation and the one guarded Newton solver.

* :class:`FiberInterp`, a piecewise 6-point Lagrange interpolant (barycentric
  form, windows anchored to the containing segment so evaluation is
  continuous across nodes).  Evaluation is two steps: :class:`FiberWeights`
  at one point per spatial node, then those weights applied to any number of
  fields; a solved level keeps its weights, so every reduction at that level
  reuses them.  Sixth-order accuracy keeps spatial spectral derivatives of
  reduced fields at full stencil order, and the same interpolant backs both
  reduction and the level-set root solve, so reducing the moment map at a
  solved level returns the target to root tolerance.  It reproduces quintics
  exactly, hence products of fiber-linear fields reduce exactly.
* :func:`newton_decreasing`, the bracketed Newton iteration behind every root
  solve of a decreasing function: the level sets here and the Legendre
  inversion of :mod:`kredux.lift`.
* :class:`FiberSpline`, quintic (k=5) splines used for fiberwise
  antiderivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConverged

_BARY6 = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
_WIDTH = 6


def newton_decreasing(fun, lo, hi, tol, max_iter, what):
    """Roots of decreasing functions, one per item, by guarded Newton steps.

    ``fun(x, items)`` returns the residuals and slopes of the indexed items
    at ``x``.  Each item starts mid-bracket [lo, hi] and retires once
    |r| <= tol (scalar or per item); the bracket follows the residual's sign,
    and a step that leaves it or is not finite bisects it.  Returns the
    roots, the residuals at retirement and the step count; raises
    NotConverged, naming ``what``, if an item is left after ``max_iter``.
    """
    roots, resid = np.empty(lo.size), np.empty(lo.size)
    items = np.arange(lo.size)
    tol = np.broadcast_to(tol, lo.shape)
    x = 0.5 * (lo + hi)
    for step in range(max_iter + 1):
        r, slope = fun(x, items)
        done = np.abs(r) <= tol
        roots[items[done]], resid[items[done]] = x[done], r[done]
        if done.all():
            return roots, resid, step
        if step == max_iter:
            raise NotConverged(
                f"{what}: {int(np.sum(~done))} of {lo.size} roots above "
                f"tolerance after {max_iter} Newton steps (worst residual "
                f"{float(np.max(np.abs(r[~done]))):.3e})")
        keep = ~done
        items, x, lo, hi, r, slope, tol = (
            a[keep] for a in (items, x, lo, hi, r, slope, tol))
        lo = np.where(r > 0, np.maximum(lo, x), lo)
        hi = np.where(r < 0, np.minimum(hi, x), hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - r / slope
        bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
        x = np.where(bad, 0.5 * (lo + hi), x_new)


class FiberWeights:
    """Barycentric weights of the 6-point fiber interpolant at one point per
    spatial node (the nodes ``rows`` of a flattened field, all by default).

    They depend only on the points, so one set evaluates any field there.
    """

    def __init__(self, l_nodes, pts, rows=None):
        n = len(l_nodes)
        self.shape = np.shape(pts)
        pts = np.reshape(pts, -1)
        seg = np.clip(np.searchsorted(l_nodes, pts, side="right") - 1, 0, n - 2)
        self.idx = np.clip(seg - 2, 0, n - _WIDTH)[:, None] + np.arange(_WIDTH)
        d = pts[:, None] - l_nodes[self.idx]
        h = (l_nodes[-1] - l_nodes[0]) / (n - 1)
        self.hit = np.abs(d) < 1e-13 * max(h, 1e-30)
        self.on_node = self.hit.any(axis=1)
        self.d = np.where(self.hit, 1.0, d)
        self.c = np.where(self.hit, 0.0, _BARY6 / self.d)
        self.denom = np.where(self.on_node, 1.0, np.sum(self.c, axis=1))
        self.rows = (np.arange(pts.size) if rows is None else rows)[:, None]

    def window_and_value(self, values):
        """Each node's window of ``values`` and its interpolant there."""
        fj = values.reshape(-1, values.shape[-1])[self.rows, self.idx]
        val = np.sum(self.c * fj, axis=1) / self.denom
        val[self.on_node] = fj[self.hit]
        return fj, val

    def apply(self, values):
        """Each node's interpolant of a real or complex array (fiber axis
        last) at that node's point."""
        if np.iscomplexobj(values):
            # dividing a complex sum by the real denominator is not
            # bit-identical to dividing its two parts
            return self.apply(values.real) + 1j * self.apply(values.imag)
        return self.window_and_value(values)[1].reshape(self.shape)


class FiberInterp:
    """Order-6 local Lagrange interpolation of ``values`` along the last axis."""

    def __init__(self, l_nodes, values):
        self.l = np.asarray(l_nodes, dtype=float)
        n = len(self.l)
        if n < _WIDTH:
            raise ValueError("need at least 6 fiber nodes")
        values = np.asarray(values)
        self.spatial_shape = values.shape[:-1]
        self._vals = values.reshape(-1, n)
        self._h = (self.l[-1] - self.l[0]) / (n - 1)

    def weights(self, pts) -> FiberWeights:
        """Weights at one point per node, checked to lie in the fiber window."""
        if np.shape(pts) != self.spatial_shape:
            raise ValueError("points must match the spatial shape")
        p = np.asarray(pts, dtype=float)
        lo, hi = self.l[0], self.l[-1]
        if np.any(p < lo - 1e-12) or np.any(p > hi + 1e-12):
            raise ValueError("fiber interpolation point outside the grid window")
        return FiberWeights(self.l, np.clip(p, lo, hi))

    def at(self, pts):
        """Evaluate each node's interpolant at that node's point."""
        return self.weights(pts).apply(self._vals)

    def _value_slope(self, x, rows=None):
        """Value and slope at one point per row (all rows by default); a
        point on a node takes the slope just above it."""
        w = FiberWeights(self.l, x, rows)
        fj, val = w.window_and_value(self._vals)
        slope = np.sum(w.c * (val[:, None] - fj) / w.d, axis=1) / w.denom
        on = w.on_node
        if on.any():
            slope[on] = self._value_slope(x[on] + 1e-8 * self._h,
                                          w.rows[on, 0])[1]
        return val, slope

    def deriv_at(self, pts):
        p = np.clip(np.asarray(pts, dtype=float).reshape(-1), self.l[0], self.l[-1])
        return self._value_slope(p)[1].reshape(self.spatial_shape)

    def solve_decreasing(self, target, tol_scale=1e-12, max_iter=120):
        """Per-node root of interp(l) = target for fiberwise decreasing data,
        by :func:`newton_decreasing` on the nodes whose end values bracket
        the target.

        Returns ``(roots, missing, max_residual, iterations)``; missing marks
        the other nodes, whose roots are set to the first fiber node, and
        iterations counts the Newton updates taken.
        """
        missing = ~((self._vals[:, 0] >= target) & (self._vals[:, -1] <= target))
        rows = np.flatnonzero(~missing)

        def residual(x, items):
            val, slope = self._value_slope(x, rows[items])
            return val - target, slope

        found, resid, iterations = newton_decreasing(
            residual, np.full(rows.size, self.l[0]),
            np.full(rows.size, self.l[-1]), tol_scale * max(1.0, abs(target)),
            max_iter, f"level solve at {target:.6g}")
        roots = np.full(missing.size, self.l[0])
        roots[rows] = found
        max_resid = float(np.max(np.abs(resid))) if rows.size else np.nan
        return (roots.reshape(self.spatial_shape),
                missing.reshape(self.spatial_shape), max_resid, iterations)


class FiberSpline:
    """Quintic splines along the last axis; used for fiber antiderivatives
    (evaluated at the nodes, so the vectorized spline call applies)."""

    def __init__(self, l_nodes, values):
        from scipy.interpolate import make_interp_spline

        values = np.asarray(values)
        self.l = np.asarray(l_nodes, dtype=float)
        self.spatial_shape = values.shape[:-1]
        y = np.moveaxis(values, -1, 0).reshape(len(self.l), -1)
        self._sp = make_interp_spline(self.l, y, k=5, axis=0)

    def antiderivative_values(self):
        """Antiderivative sampled on the fiber nodes (zero at the first node)."""
        vals = self._sp.antiderivative()(self.l)
        vals = vals - vals[0]
        return np.moveaxis(vals, 0, -1).reshape(self.spatial_shape + (len(self.l),))

    def antiderivative_from_end(self):
        """Integral from l to l_max, sampled on the nodes."""
        vals = self.antiderivative_values()
        return vals[..., -1:] - vals
