"""Fiberwise interpolation and the monotone level-set solve.

Two tools, both vectorized over spatial nodes:

* :class:`FiberInterp`, a piecewise 6-point Lagrange evaluator (barycentric
  form, windows anchored to the containing segment so evaluation is
  continuous across nodes).  Sixth-order accuracy keeps spatial spectral
  derivatives of reduced fields at full stencil order, and the same
  interpolant backs both scalar reduction and the level-set root solve, so
  reducing the moment map at a solved level returns the target to root
  tolerance.  It reproduces quintics exactly, hence products of fiber-linear
  fields reduce exactly.
* :class:`FiberSpline`, quintic (k=5) splines used for fiberwise
  antiderivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConverged

_BARY6 = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
_WIDTH = 6


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
        self._rows = np.arange(self._vals.shape[0])[:, None]
        self._n = n
        self._h = (self.l[-1] - self.l[0]) / (n - 1)

    def _window(self, pts):
        seg = np.searchsorted(self.l, pts, side="right") - 1
        seg = np.clip(seg, 0, self._n - 2)
        start = np.clip(seg - 2, 0, self._n - _WIDTH)
        return start[:, None] + np.arange(_WIDTH)

    def _eval(self, pts_flat, deriv=0):
        idx = self._window(pts_flat)
        xj = self.l[idx]
        fj = self._vals[self._rows, idx]
        d = pts_flat[:, None] - xj
        hit = np.abs(d) < 1e-13 * max(self._h, 1e-30)
        d_safe = np.where(hit, 1.0, d)
        c = _BARY6 / d_safe
        c = np.where(hit, 0.0, c)
        denom = np.sum(c, axis=1)
        on_node = hit.any(axis=1)
        denom = np.where(on_node, 1.0, denom)
        val = np.sum(c * fj, axis=1) / denom
        if np.any(on_node):
            node_val = fj[hit.cumsum(axis=1).astype(bool) & hit]
            val = np.where(on_node, 0.0, val)
            val[on_node] = node_val
        if deriv == 0:
            return val
        # barycentric derivative; nudge exact node hits off the node
        if np.any(on_node):
            pts2 = pts_flat + np.where(on_node, 1e-8 * self._h, 0.0)
            return self._eval(pts2, deriv=1)
        num = np.sum(c * (val[:, None] - fj) / d_safe, axis=1)
        return num / denom

    def at(self, pts):
        """Evaluate each node's interpolant at that node's point."""
        if np.shape(pts) != self.spatial_shape:
            raise ValueError("points must match the spatial shape")
        p = np.asarray(pts, dtype=float).reshape(-1)
        lo, hi = self.l[0], self.l[-1]
        if np.any(p < lo - 1e-12) or np.any(p > hi + 1e-12):
            raise ValueError("fiber interpolation point outside the grid window")
        return self._eval(np.clip(p, lo, hi)).reshape(self.spatial_shape)

    def deriv_at(self, pts):
        p = np.clip(np.asarray(pts, dtype=float).reshape(-1), self.l[0], self.l[-1])
        return self._eval(p, deriv=1).reshape(self.spatial_shape)

    def solve_decreasing(self, target, tol_scale=1e-12, max_iter=120):
        """Per-node root of interp(l) = target for fiberwise decreasing data.

        Safeguarded Newton inside a bisection bracket refreshed from the
        residual sign.  Returns ``(roots, missing, max_residual, iterations)``;
        missing marks nodes whose endpoint values do not bracket the target,
        and iterations counts the Newton updates taken.  Raises NotConverged
        when a bracketed node is still above tolerance after ``max_iter``
        updates.
        """
        nspace = self._vals.shape[0]
        f_lo = self._vals[:, 0]
        f_hi = self._vals[:, -1]
        missing = ~((f_lo >= target) & (f_hi <= target))
        lo = np.full(nspace, self.l[0])
        hi = np.full(nspace, self.l[-1])
        x = 0.5 * (lo + hi)
        tol = tol_scale * max(1.0, abs(target))
        iterations = 0
        while True:
            r = self._eval(x) - target
            done = np.abs(r) <= tol
            if np.all(done | missing) or iterations == max_iter:
                break
            lo = np.where(r > 0, np.maximum(lo, x), lo)
            hi = np.where(r < 0, np.minimum(hi, x), hi)
            d = self._eval(x, deriv=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(np.abs(d) > 0, r / d, 0.0)
            x_new = x - step
            bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
            x_new = np.where(bad, 0.5 * (lo + hi), x_new)
            x = np.where(done, x, x_new)
            iterations += 1
        stalled = ~done & ~missing
        if np.any(stalled):
            raise NotConverged(
                f"level solve at {target:.6g}: {int(np.sum(stalled))} nodes "
                f"above tolerance {tol:.1e} after {max_iter} iterations "
                f"(max residual {float(np.max(np.abs(r[stalled]))):.2e})")
        resid = np.abs(r)
        resid[missing] = np.nan
        max_resid = float(np.nanmax(resid)) if not np.all(missing) else np.nan
        return (x.reshape(self.spatial_shape),
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
