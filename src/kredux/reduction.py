"""Level sets of the moment map, the reduction map, and its verifiers.

Reduction of an invariant scalar f at level tau evaluates f along the fiber
at the unique l_tau(x) with mu(x, l_tau(x)) = tau; the moment map is
fiberwise strictly decreasing on positive data, so the level always brackets.
The level is solved by the one fiber Newton solver of :mod:`kredux.interp`
and keeps the solver's own interpolation weights at l_tau: scalars, spatial
1-form components and 2-forms, real or complex, all reduce through those
weights.

Level sets and reduced potentials of assembled data are solved once per tau
and kept with the structure.  ``level_sets`` takes a sequence of levels and
sends every level the structure does not keep yet through one fiber solve;
``reduced_potentials`` takes its levels from ``level_sets`` and builds the
invariant field phi + ((mu - c)/2) l that they reduce once.  ``level_set``
and ``reduced_potential`` are the one-level forms.  The identity checks take a
sequence of levels (a scalar is one level): each solves its levels together,
builds its tau-independent total-space arrays once, evaluates every level,
and returns one report with the worst norms and each level's sup norm in
``reduced_by_tau``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .curvature import descent_drift, laplacian_m, laplacian_p
from .errors import Degenerate, NotPositive, OutOfRange
from .fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP, ddc_m,
                     d_wedge_dc, ddc_p, interior_norms, jv_apply, wedge_square)
from .interp import FiberInterp, FiberWeights
from .reports import ResidualReport
from .structure import KahlerData


@dataclass(frozen=True)
class LevelSet:
    """Solved fiber level l_tau(x), its fiber weights and root diagnostics;
    ``missing`` marks the nodes tau misses, none on a complete level."""

    tau: float
    l_tau: ScalarFieldM
    weights: FiberWeights = field(repr=False)
    max_residual: float
    iterations: int
    missing: np.ndarray

    @property
    def complete(self):
        return not self.missing.any()


@dataclass(frozen=True)
class ReductionResult:
    tau: float
    l_tau: ScalarFieldM
    psi_tau: ScalarFieldM
    omega_tau: Form11M
    max_root_residual: float
    min_eigenvalue: float
    level: LevelSet


def _solve_levels(interp, grid, taus) -> list[LevelSet]:
    """A LevelSet per level of ``taus``, all from one fiber solve."""
    levels = []
    for tau, (roots, missing, resid, iterations, weights) in zip(
            taus, interp.solve_decreasing(np.asarray(taus, dtype=float))):
        levels.append(LevelSet(float(tau), ScalarFieldM(grid, roots), weights,
                               float("nan") if missing.any() else resid,
                               iterations, missing))
    return levels


def level_set(K: KahlerData | ScalarFieldP, tau: float,
              raise_on_miss=True) -> LevelSet:
    """Fiber level of the moment map at tau.

    Accepts assembled data or a bare moment-map field.  Nodes whose fiber
    range does not contain tau are reported through OutOfRange (or returned
    as a mask when ``raise_on_miss`` is off); the miss set itself is the
    topology diagnostic used by the golden example.  Raises ValueError for
    a non-finite tau and NotConverged when the root solve does not stop
    within its step cap.
    """
    if not np.isfinite(tau):
        raise ValueError(f"level tau={tau} is not finite")
    if isinstance(K, KahlerData):
        level = K.cached(("level_set", float(tau)), lambda: _solve_levels(
            K.mu_interp(), K.grid, [tau])[0])
    else:
        level = _solve_levels(FiberInterp(K.grid.l, K.values), K.grid,
                              [tau])[0]
    if raise_on_miss and not level.complete:
        raise OutOfRange(
            f"tau={tau} outside the fiber range at "
            f"{int(np.sum(level.missing))} spatial nodes",
            missing=level.missing)
    return level


def level_sets(K: KahlerData, taus) -> list[LevelSet]:
    """:func:`level_set` at each level of ``taus``; the finite levels ``K``
    does not keep yet go through one fiber solve."""
    taus = _levels(taus)
    K.cache_new([("level_set", float(t)) for t in taus if np.isfinite(t)],
                lambda keys: _solve_levels(K.mu_interp(), K.grid,
                                           [key[1] for key in keys]))
    return [level_set(K, tau) for tau in taus]


def reduce_scalar(f: ScalarFieldP, level: LevelSet) -> ScalarFieldM:
    """f_tau(x) = f(x, l_tau(x)) through the level's fiber weights."""
    return ScalarFieldM(f.grid, level.weights.apply(f.values))


def reduce_form(theta: Form11P, level: LevelSet):
    """Reduction of an invariant 2-form at a level set.

    Pulls the frame components back to the level, eliminating the angular
    direction; returns the reduced (1,1)-form on M together with the sup of
    the leftover angular component (zero, up to discretization, exactly when
    the form is reducible at this level).
    """
    grid = theta.grid
    L = grid.dz_stripped(level.l_tau.values)
    wm = grid.mixed_weight
    g11, g12, g22 = map(level.weights.apply, (theta.g11, theta.g12, theta.g22))
    h = g11 + np.real(g12 * np.conj(L)) * wm
    angular = g12 + g22 * L
    if theta.b20 is not None:
        b = level.weights.apply(theta.b20)
        h = h + np.imag(b * np.conj(L)) * wm
        angular = angular + 1j * b
    ang_sup = float(np.max(np.abs(angular) * np.sqrt(wm)))
    return Form11M(grid, h), ang_sup


def reduced_potential(K: KahlerData, tau: float) -> ReductionResult:
    """Reduced potential psi_tau and reduced form omega_tau = sigma + dd^c psi_tau.

    psi_tau is the reduction of the invariant field phi + ((mu - c)/2) l.
    Raises NotPositive where omega_tau degenerates.
    """
    return reduced_potentials(K, [tau])[0]


def reduced_potentials(K: KahlerData, taus) -> list[ReductionResult]:
    """:func:`reduced_potential` at each level of ``taus``, on the levels of
    :func:`level_sets`; the field they reduce is built once, if any level is
    not kept with ``K`` yet."""
    # not kept with K: it would hold one more total-space array through the
    # structure's later peaks (1 MB at the verify battery's 32x32x129)
    psi = functools.cache(lambda: ScalarFieldP(
        K.grid, K.phi.values + 0.5 * (K.mu.values - K.c) * K.grid.l))
    reds = []
    for level in level_sets(K, taus):
        def build(level=level):
            psi_tau = reduce_scalar(psi(), level)
            omega_tau = K.sigma + ddc_m(psi_tau)
            return ReductionResult(level.tau, level.l_tau, psi_tau, omega_tau,
                                   level.max_residual,
                                   float(np.min(omega_tau.h)), level)

        red = K.cached(("reduced_potential", level.tau), build)
        if red.min_eigenvalue <= 0.0:
            raise NotPositive(
                f"omega_tau degenerates at tau={level.tau} "
                f"(min component {red.min_eigenvalue:.3e})",
                eigenvalue=red.min_eigenvalue)
        reds.append(red)
    return reds


def default_taus(K: KahlerData, count=7, shrink=0.25):
    """Levels spanning the interior of the everywhere-admissible tau range."""
    lo, hi = K.mu_range()
    pad = shrink * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _m_norms(grid, values):
    return interior_norms(values, grid.interior_m())


def _levels(taus):
    """The levels of a check as a 1-d array; a scalar is one level."""
    return np.atleast_1d(np.asarray(taus, dtype=float))


def merge_levels(name, grid, taus, norms) -> ResidualReport:
    """One report for a check evaluated at several levels.

    ``norms`` holds one (linf, l2) pair per level; the report carries the
    worst of each and every level's linf in ``reduced_by_tau``.
    """
    by_tau = [[float(t), linf] for t, (linf, _) in zip(taus, norms)]
    return ResidualReport(name, grid.meta(), max(n[0] for n in norms),
                          max(n[1] for n in norms), reduced_by_tau=by_tau)


def check_dertau(K: KahlerData, f: ScalarFieldP, taus,
                 dtau: float = 1e-4, dl_f=None) -> ResidualReport:
    """d(f_tau)/dtau against the reduction of JV(f)/|V|^2, at each level;
    ValueError if a level tau +- dtau leaves the moment map's range.
    ``dl_f`` may supply f's fiber slope, as for :func:`jv_apply`."""
    grid = K.grid
    taus = _levels(taus)
    lo, hi = K.mu_range()
    if np.min(taus) - dtau < lo or np.max(taus) + dtau > hi:
        raise ValueError(f"dtau: levels tau +- {dtau:g} leave the moment "
                         f"map's range [{lo:.6g}, {hi:.6g}]")
    g = jv_apply(f, dl_f) / K.vsq
    levels = level_sets(K, np.concatenate([taus + dtau, taus - dtau, taus]))
    n = len(taus)
    norms = []
    for up, dn, at in zip(levels[:n], levels[n:2 * n], levels[2 * n:]):
        lhs = (reduce_scalar(f, up).values
               - reduce_scalar(f, dn).values) / (2.0 * dtau)
        rhs = reduce_scalar(g, at)
        norms.append(_m_norms(grid, lhs - rhs.values))
    return merge_levels("dertau", grid, taus, norms)


def check_dcred(K: KahlerData, f: ScalarFieldP, taus,
                dl_f=None) -> ResidualReport:
    """Spatial differential of f_tau against the reduced combination
    d^c f - (JV(f)/|V|^2) d^c mu, compared through holomorphic components,
    at each level.  ``dl_f`` may supply f's fiber slope."""
    grid = K.grid
    taus = _levels(taus)
    g = jv_apply(f, dl_f) / K.vsq
    combo = grid.dz_stripped(f.values) + g.values * K.omega.g12  # g12 = -dz mu
    norms = []
    for level in level_sets(K, taus):
        lhs = grid.dz_stripped(reduce_scalar(f, level).values)
        rhs = level.weights.apply(combo)
        gap = np.abs(lhs - rhs) * np.sqrt(grid.mixed_weight)
        norms.append(_m_norms(grid, gap))
    return merge_levels("dcred", grid, taus, norms)


def ma_reduced(K: KahlerData, f: ScalarFieldP, taus) -> ResidualReport:
    """Monge-Ampere ratio on the base against the reduced total-space ratio,
    at each level."""
    grid = K.grid
    taus = _levels(taus)
    dl_f = grid.d_l(f.values, 1)
    g = jv_apply(f, dl_f) / K.vsq
    xi = ddc_p(f, dl_f)
    del dl_f
    xi += K.omega
    xi -= d_wedge_dc(g, K)
    ratio = wedge_square(xi)
    del xi
    # omega /\ omega: K.omega has no (2,0) part
    den_p = np.multiply(K.omega_det(), 2.0)
    # relative to the density's own scale, which a uniform rescaling of the
    # structure moves
    if np.any(np.abs(den_p) <= 1e-14 * np.max(np.abs(den_p))):
        raise Degenerate("total-space volume density vanishes")
    ratio /= den_p
    norms = []
    for red in reduced_potentials(K, taus):
        num_m = red.omega_tau + ddc_m(reduce_scalar(f, red.level))
        lhs = num_m.h / red.omega_tau.h
        rhs = red.level.weights.apply(ratio)
        norms.append(_m_norms(grid, lhs - rhs))
    return merge_levels("ma_reduced", grid, taus, norms)


def laplace_reduced(K: KahlerData, f: ScalarFieldP, taus,
                    dl_f=None) -> ResidualReport:
    """Laplacian of f_tau on the reduced metric against the reduction of the
    descended second-order operator on the total space, at each level.
    ``dl_f`` may supply f's fiber slope; otherwise it is taken once here."""
    grid = K.grid
    taus = _levels(taus)
    if dl_f is None:
        dl_f = grid.d_l(f.values, 1)
    jvf = jv_apply(f, dl_f)
    rhs_p = (laplacian_p(f, K, dl_f)
             - descent_drift(K) * jvf / K.vsq
             - jv_apply(jvf) / (2.0 * K.vsq))
    norms = []
    for red in reduced_potentials(K, taus):
        lhs = laplacian_m(reduce_scalar(f, red.level), red.omega_tau).values
        rhs = reduce_scalar(rhs_p, red.level)
        norms.append(_m_norms(grid, lhs - rhs.values))
    return merge_levels("laplace_reduced", grid, taus, norms)
