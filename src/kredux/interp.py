"""Fiberwise interpolation and quadrature, the level solve and the quintic
spline in time.

* :class:`FiberInterp`, a piecewise 6-point Lagrange interpolant (barycentric
  form, windows anchored to the containing segment so evaluation is
  continuous across nodes).  Evaluation is two steps: :class:`FiberWeights`
  at one point per spatial node, then those weights applied to any number of
  fields; a solved level keeps its weights, so every reduction at that level
  reuses them.  Sixth-order accuracy keeps spatial spectral derivatives of
  reduced fields at full stencil order, and the same interpolant backs both
  reduction and the level-set root solve, so reducing the moment map at a
  solved level returns the target to roundoff.  It reproduces quintics
  exactly, hence products of fiber-linear fields reduce exactly.
  :meth:`FiberInterp.antiderivative` integrates the same interpolant exactly
  over each fiber segment: the fiber quadrature of ``potential_from_moment``
  and ``reparametrize``, and on the uniform radial axis the two
  antiderivatives of the radial Poisson solve.
  :meth:`FiberInterp.solve_decreasing` is the level solve, bracket then
  polish: one comparison of the node values with the levels puts each root
  in one fiber segment, that segment's window is gathered once, and guarded
  Newton on the window's polynomial starts at the segment's secant point,
  typically 0-2 steps from the root.  It has one contract: an array of
  levels goes through one loop, and each level comes back as its roots,
  missing mask, worst residual, step count and the weights at its roots,
  built on the windows the solve used, so no reduction builds them again.
* :class:`QuinticSpline`, the not-a-knot quintic spline in numpy, with
  scipy's ``PPoly`` layout: every time derivative of a sampled path, and the
  level profile ``h_canonical``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotConverged

_BARY6 = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
_WIDTH = 6
MAX_NEWTON_STEPS = 120  # level solve step cap: NotConverged past it
# (level, node) pairs per loop of the level solve.  Its temporaries grow with
# the pairs, 6 window values each: 2048 keeps them near those of one level at
# 32x32 (measured: 9 torus levels at once raise the verify heap by 1.7 MB),
# and at this size the loop is no slower than with every level at once.
_LOOP_PAIRS = 2048
# Row p, over 1440: the integrals over [p, p + 1] of the Lagrange basis on the
# local nodes 0..5.  A fiber segment takes the row of its place in its window.
_SEGMENT_ROWS = np.array([[475, 1427, -798, 482, -173, 27],
                          [-27, 637, 1022, -258, 77, -11],
                          [11, -93, 802, 802, -93, 11],
                          [-11, 77, -258, 1022, 637, -27],
                          [27, -173, 482, -798, 1427, 475]]) / 1440.0


def _window(seg, n):
    """Fiber indices of each segment's 6-point window: its two nodes and two
    on each side, shifted inward at the fiber ends."""
    return np.clip(seg - 2, 0, n - _WIDTH)[..., None] + np.arange(_WIDTH)


class FiberWeights:
    """Barycentric weights of the 6-point fiber interpolant at one point per
    spatial node.

    They depend only on the points, so one set evaluates any field there.
    Each point takes the window of the segment that contains it, or the
    given windows ``idx``.
    """

    def __init__(self, l_nodes, pts, idx=None):
        n = len(l_nodes)
        self.shape = np.shape(pts)
        pts = np.reshape(pts, -1)
        if idx is None:
            seg = np.clip(np.searchsorted(l_nodes, pts, side="right") - 1,
                          0, n - 2)
            idx = _window(seg, n)
        self.idx = idx
        d = pts[:, None] - l_nodes[self.idx]
        h = (l_nodes[-1] - l_nodes[0]) / (n - 1)
        self.hit = np.abs(d) < 1e-13 * max(h, 1e-30)
        self.on_node = self.hit.any(axis=1)
        self.d = np.where(self.hit, 1.0, d)
        self.c = np.where(self.hit, 0.0, _BARY6 / self.d)
        self.denom = np.where(self.on_node, 1.0, np.sum(self.c, axis=1))

    def window(self, values):
        """Each node's window of ``values`` (fiber axis last)."""
        rows = np.arange(self.idx.shape[0])[:, None]
        return values.reshape(-1, values.shape[-1])[rows, self.idx]

    def value(self, fj):
        """The interpolant of the windows ``fj`` at each node's point."""
        val = np.sum(self.c * fj, axis=1) / self.denom
        val[self.on_node] = fj[self.hit]
        return val

    def slope(self, fj, val):
        """Its slope there, given the value; a point on a node takes the
        slope of its window's polynomial at that node."""
        slope = np.sum(self.c * (val[:, None] - fj) / self.d, axis=1) / self.denom
        on = self.on_node
        if on.any():
            # p'(x_j) = sum over k != j of (b_k / b_j) (f_k - f_j) / (x_j - x_k);
            # the k = j term is 0 / 1
            b_j = _BARY6[np.argmax(self.hit[on], axis=1)]
            slope[on] = np.sum(_BARY6 * (fj[on] - val[on, None]) / self.d[on],
                               axis=1) / b_j
        return slope

    def apply(self, values):
        """Each node's interpolant of a real or complex array (fiber axis
        last) at that node's point."""
        if np.iscomplexobj(values):
            # dividing a complex sum by the real denominator is not
            # bit-identical to dividing its two parts
            return self.apply(values.real) + 1j * self.apply(values.imag)
        return self.value(self.window(values)).reshape(self.shape)


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

    def antiderivative(self):
        """Integral of the interpolant from the first fiber node to each node,
        exact on every segment, in C order."""
        n = self.l.size
        seg = np.arange(n - 1)
        idx = _window(seg, n)
        pieces = self._h * np.einsum("fsj,sj->fs", self._vals[:, idx],
                                     _SEGMENT_ROWS[seg - idx[:, 0]])
        out = np.zeros(self._vals.shape, dtype=pieces.dtype)
        np.cumsum(pieces, axis=1, out=out[:, 1:])
        return out.reshape(self.spatial_shape + (n,))

    def solve_decreasing(self, levels):
        """Per-node root of interp(l) = tau for fiberwise decreasing data, at
        each level tau of the 1-d array ``levels`` (a scalar is one level),
        on the nodes whose end values bracket tau.  Every (level, node) pair
        goes through one loop, up to _LOOP_PAIRS pairs at a time, and each
        pair's iterates are those of a solve of its level alone.

        Bracket, then polish.  One comparison of the node values with the
        levels brackets each root in one segment, the one ending at the
        node's first value below the level (the last segment if none is
        below), and that segment's 6-point window is gathered once: it is
        the window FiberWeights takes for any point inside the segment, so
        the interpolant is the one every reduction evaluates.  Guarded Newton
        then runs on that window's polynomial from the segment's secant
        point: the bracket follows the residual's sign, and a step that
        leaves it or is not finite bisects it.  A node stops where Newton
        stops moving (residual 0, or step or bracket within 4 eps max|l|),
        never on a residual threshold: so the solve is scale-free, a level
        equal to a node value returns that node without a step, and a root
        on a node's snap plateau still stops.

        Returns one ``(roots, missing, max_residual, iterations, weights)``
        per level.  ``missing`` marks the nodes the level does not bracket,
        whose roots are set to the first fiber node; ``iterations`` counts
        the Newton updates taken; ``weights`` are the fiber weights at the
        roots, built on the windows the solve used (window 0 at a missing
        node), and apply as ``weights(roots)`` does.  Raises NotConverged,
        naming the first level whose nodes still move after
        MAX_NEWTON_STEPS.
        """
        levels = np.asarray(levels, dtype=float).reshape(-1)
        per = max(1, _LOOP_PAIRS // len(self._vals))
        return [level for k in range(0, levels.size, per)
                for level in self._solve(levels[k:k + per])]

    def _solve(self, levels):
        """``solve_decreasing`` of a 1-d array of levels, in one loop."""
        t = levels.reshape(-1, 1)
        vals, l, n = self._vals, self.l, self.l.size
        missing = ~((vals[:, 0] >= t) & (vals[:, -1] <= t))
        # one item per (level, node) pair with a root, level by level
        item = np.flatnonzero(~missing)
        level, nodes = np.divmod(item, len(vals))
        tgt = t[level, 0]
        seg = np.argmax(vals < t[:, :, None], axis=2).ravel()[item] - 1
        seg[seg < 0] = n - 2
        # each pair's window; a missing node keeps the first one
        segs = np.zeros(missing.size, dtype=seg.dtype)
        segs[item] = seg
        windows = _window(segs, n)
        idx = windows[item]
        fj = vals[nodes[:, None], idx]
        lo, hi = l[seg], l[seg + 1]
        f_lo, f_hi = vals[nodes, seg], vals[nodes, seg + 1]
        # f_lo >= target >= f_hi; the secant point is the node when f_lo or
        # f_hi is the target
        frac = (f_lo - tgt) / np.maximum(f_lo - f_hi, np.finfo(float).tiny)
        x = (1.0 - frac) * lo + frac * hi
        roots = np.full(missing.size, l[0])
        worst = np.zeros(len(t))
        steps = np.zeros(len(t), dtype=int)
        still = 4 * np.finfo(float).eps * max(abs(l[0]), abs(l[-1]))
        for step in range(MAX_NEWTON_STEPS + 1):
            w = FiberWeights(l, x, idx=idx)
            val = w.value(fj)
            r = val - tgt
            lo = np.where(r > 0, np.maximum(lo, x), lo)
            hi = np.where(r < 0, np.minimum(hi, x), hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                dx = r / w.slope(fj, val)
            done = (r == 0) | (np.abs(dx) <= still) | (hi - lo <= still)
            roots[item[done]] = x[done]
            np.maximum.at(worst, level[done], np.abs(r[done]))
            steps[level[done]] = step
            if done.all():
                break
            if step == MAX_NEWTON_STEPS:
                first = level[~done][0]
                moving = (level == first) & ~done
                raise NotConverged(
                    f"level solve at {t[first, 0]:.6g}: "
                    f"{int(np.sum(moving))} roots still moving after {step} "
                    f"Newton steps (worst residual "
                    f"{float(np.max(np.abs(r[moving]))):.3e})")
            keep = np.flatnonzero(~done)
            item, level, tgt, idx, fj, x, lo, hi, dx = (
                a[keep] for a in (item, level, tgt, idx, fj, x, lo, hi, dx))
            x_new = x - dx
            bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
            x = np.where(bad, 0.5 * (lo + hi), x_new)
        found = (~missing).any(axis=1)
        worst = [float(a) if f else np.nan for a, f in zip(worst, found)]
        shape = self.spatial_shape
        roots = roots.reshape((len(t),) + shape)
        missing = missing.reshape((len(t),) + shape)
        windows = windows.reshape(len(t), -1, _WIDTH)
        return [(r, m, w, s, FiberWeights(l, r, idx=win)) for r, m, w, s, win
                in zip(roots, missing, worst, steps.tolist(), windows)]


def poly_eval(c, d, nu=0):
    """The nu-th d-derivative of sum_k c[k] d^(deg - k), c on axis 0."""
    deg = len(c) - 1
    out = c[0] * math.perm(deg, nu)
    for k in range(1, deg + 1 - nu):
        out *= d
        out += c[k] * math.perm(deg - k, nu) if nu else c[k]
    return out


class QuinticSpline:
    """The not-a-knot quintic spline through ``(x, y)``, knots on axis 0 of
    ``y`` and any trailing shape: scipy's ``make_interp_spline(x, y, k=5)``.

    ``c`` has scipy's ``PPoly`` layout, (6, n - 1) + trailing shape: piece i
    is ``sum_k c[k] d^(5 - k)`` in d = t - x[i], from the derivatives at its
    start.  One dense collocation solve (n is at most a few hundred samples)
    in the B-spline basis on the knots x[3:-3] (not-a-knot) gives them; two
    to five knots give the interpolating polynomial.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.size < 2 or y.shape[:1] != x.shape:
            raise ValueError("need at least 2 knots, one per row of y")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline samples must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("spline knots must be strictly increasing")
        self.x = x
        n, p = x.size, min(5, x.size - 1)
        t = np.concatenate([np.full(p + 1, x[0]), x[3:-3], np.full(p + 1, x[-1])])
        # B[q]: the B-splines of degree q on t at x, one row per point
        # (Cox-de Boor); the last point takes the last nonempty interval
        span = np.minimum(np.searchsorted(t, x, side="right") - 1, t.size - p - 2)
        B = [(np.arange(t.size - 1) == span[:, None]).astype(float)]
        for q in range(1, p + 1):
            left = _ratio(x[:, None] - t[:-q - 1], t[q:-1] - t[:-q - 1])
            right = _ratio(t[q + 1:] - x[:, None], t[q + 1:] - t[1:-q])
            B.append(left * B[-1][:, :-1] + right * B[-1][:, 1:])
        coef = np.linalg.solve(B[p], y.reshape(n, -1))
        c = np.zeros((6, n - 1, coef.shape[1]))
        for r in range(p + 1):
            c[5 - r] = B[p - r][:-1] @ coef / math.factorial(r)
            # the derivative's coefficients on t, one degree lower
            q = p - r
            coef = _ratio(q, t[q:] - t[:t.size - q])[:, None] * np.diff(
                coef, axis=0, prepend=0.0, append=0.0)
        self.c = c.reshape((6, n - 1) + y.shape[1:])

    def __call__(self, t, nu=0):
        """The nu-th derivative at ``t``, from the piece that starts at or
        before it; beyond the knots the end pieces extrapolate."""
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.x, t, side="right") - 1,
                      0, self.x.size - 2)
        d = (t - self.x[seg]).reshape(t.shape + (1,) * (self.c.ndim - 2))
        return poly_eval(self.c[:, seg], d, nu)


def _ratio(a, b):
    """a / b, and 0 where b is 0 (at a repeated knot)."""
    return np.divide(a, b, out=np.zeros(np.broadcast(a, b).shape), where=b > 0)

