"""Level sets of the moment map, the reduction map, and its verifiers.

Reduction of an invariant scalar f at level tau evaluates f along the fiber
at the unique l_tau(x) with mu(x, l_tau(x)) = tau; the moment map is
fiberwise strictly decreasing on positive data, so the level always brackets.
The level is solved by the one fiber Newton solver of :mod:`kredux.interp`
and keeps the interpolation weights at l_tau: scalars, spatial 1-form
components and 2-forms, real or complex, all reduce through those weights.

Level sets and reduced potentials of assembled data are solved once per
(tau, root_tol) and kept with the structure.  The identity checks take a
sequence of levels (a scalar is one level): each builds its tau-independent
total-space arrays once, evaluates every level, and returns one report with
the worst norms and each level's sup norm in ``reduced_by_tau``.
"""

from __future__ import annotations

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
    """Solved fiber level l_tau(x), its fiber weights and root diagnostics."""

    tau: float
    l_tau: ScalarFieldM
    weights: FiberWeights = field(repr=False)
    max_residual: float
    iterations: int
    missing: np.ndarray | None = None

    @property
    def complete(self):
        return self.missing is None or not bool(np.any(self.missing))


@dataclass(frozen=True)
class ReductionResult:
    tau: float
    l_tau: ScalarFieldM
    psi_tau: ScalarFieldM
    omega_tau: Form11M
    max_root_residual: float
    min_eigenvalue: float
    level: LevelSet


def _solve_level(interp, grid, tau, root_tol) -> LevelSet:
    roots, missing, resid, iterations = interp.solve_decreasing(
        tau, tol_scale=root_tol)
    complete = not missing.any()
    return LevelSet(float(tau), ScalarFieldM(grid, roots),
                    interp.weights(roots), resid if complete else float("nan"),
                    iterations, None if complete else missing)


def level_set(K: KahlerData | ScalarFieldP, tau: float, root_tol=1e-12,
              raise_on_miss=True) -> LevelSet:
    """Fiber level of the moment map at tau.

    Accepts assembled data or a bare moment-map field.  Nodes whose fiber
    range does not contain tau are reported through OutOfRange (or returned
    as a mask when ``raise_on_miss`` is off); the miss set itself is the
    topology diagnostic used by the golden example.  Raises NotConverged when
    the root solve stalls.
    """
    if isinstance(K, KahlerData):
        level = K.cached(("level_set", float(tau), float(root_tol)),
                         lambda: _solve_level(K.mu_interp(), K.grid, tau,
                                              root_tol))
    else:
        level = _solve_level(FiberInterp(K.grid.l, K.values), K.grid, tau,
                             root_tol)
    if raise_on_miss and not level.complete:
        raise OutOfRange(
            f"tau={tau} outside the fiber range at "
            f"{int(np.sum(level.missing))} spatial nodes",
            missing=level.missing)
    return level


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


def reduced_potential(K: KahlerData, tau: float, root_tol=1e-12,
                      require_positive=True) -> ReductionResult:
    """Reduced potential psi_tau and reduced form omega_tau = sigma + dd^c psi_tau.

    psi is the invariant field phi + ((mu - c)/2) l.
    """
    def build():
        grid = K.grid
        level = level_set(K, tau, root_tol=root_tol)
        psi_p = ScalarFieldP(
            grid, K.phi.values + 0.5 * (K.mu.values - K.c) * grid.l)
        psi_tau = reduce_scalar(psi_p, level)
        omega_tau = K.sigma + ddc_m(psi_tau)
        return ReductionResult(float(tau), level.l_tau, psi_tau, omega_tau,
                               level.max_residual, float(np.min(omega_tau.h)),
                               level)

    red = K.cached(("reduced_potential", float(tau), float(root_tol)), build)
    if require_positive and red.min_eigenvalue <= 0.0:
        raise NotPositive(
            f"omega_tau degenerates at tau={tau} "
            f"(min component {red.min_eigenvalue:.3e})",
            eigenvalue=red.min_eigenvalue)
    return red


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
                 dtau: float = 1e-4) -> ResidualReport:
    """d(f_tau)/dtau against the reduction of JV(f)/|V|^2, at each level."""
    grid = K.grid
    taus = _levels(taus)
    g = jv_apply(f) / K.vsq
    norms = []
    for tau in taus:
        up = reduce_scalar(f, level_set(K, tau + dtau))
        dn = reduce_scalar(f, level_set(K, tau - dtau))
        lhs = (up.values - dn.values) / (2.0 * dtau)
        rhs = reduce_scalar(g, level_set(K, tau))
        norms.append(_m_norms(grid, lhs - rhs.values))
    return merge_levels("dertau", grid, taus, norms)


def check_dcred(K: KahlerData, f: ScalarFieldP, taus) -> ResidualReport:
    """Spatial differential of f_tau against the reduced combination
    d^c f - (JV(f)/|V|^2) d^c mu, compared through holomorphic components,
    at each level."""
    grid = K.grid
    taus = _levels(taus)
    g = jv_apply(f) / K.vsq
    combo = grid.dz_stripped(f.values) - g.values * grid.dz_stripped(K.mu.values)
    norms = []
    for tau in taus:
        level = level_set(K, tau)
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
    g = jv_apply(f) / K.vsq
    xi = K.omega + ddc_p(f) - d_wedge_dc(g, K)
    num_p = wedge_square(xi).t
    den_p = wedge_square(K.omega).t
    if np.any(np.abs(den_p) < 1e-14):
        raise Degenerate("total-space volume density vanishes")
    ratio = num_p / den_p
    norms = []
    for tau in taus:
        red = reduced_potential(K, tau)
        num_m = red.omega_tau + ddc_m(reduce_scalar(f, red.level))
        lhs = num_m.h / red.omega_tau.h
        rhs = red.level.weights.apply(ratio)
        norms.append(_m_norms(grid, lhs - rhs))
    return merge_levels("ma_reduced", grid, taus, norms)


def laplace_reduced(K: KahlerData, f: ScalarFieldP, taus) -> ResidualReport:
    """Laplacian of f_tau on the reduced metric against the reduction of the
    descended second-order operator on the total space, at each level."""
    grid = K.grid
    taus = _levels(taus)
    jvf = jv_apply(f)
    rhs_p = (laplacian_p(f, K)
             - descent_drift(K) * jvf / K.vsq
             - jv_apply(jvf) / (2.0 * K.vsq))
    norms = []
    for tau in taus:
        red = reduced_potential(K, tau)
        lhs = laplacian_m(reduce_scalar(f, red.level), red.omega_tau).values
        rhs = reduce_scalar(rhs_p, red.level)
        norms.append(_m_norms(grid, lhs - rhs.values))
    return merge_levels("laplace_reduced", grid, taus, norms)
