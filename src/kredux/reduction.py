"""Level sets of the moment map, the reduction map, and its verifiers.

Reduction of an invariant scalar f at level tau evaluates f along the fiber
at the unique l_tau(x) with mu(x, l_tau(x)) = tau; the moment map is
fiberwise strictly decreasing on positive data, so the level always brackets.
Scalars, spatial 1-form components and 2-forms all reduce through the same
shared fiber interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NotPositive, OutOfRange
from .fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP, ddc_m,
                     d_wedge_dc, ddc_p, interior_norms, jv_apply, wedge_square)
from .interp import FiberInterp
from .reports import ResidualReport
from .structure import KahlerData


@dataclass(frozen=True)
class LevelSet:
    """Solved fiber level l_tau(x) with root diagnostics."""

    tau: float
    l_tau: ScalarFieldM
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


def level_set(K: KahlerData | ScalarFieldP, tau: float, root_tol=1e-12,
              raise_on_miss=True) -> LevelSet:
    """Fiber level of the moment map at tau.

    Accepts assembled data or a bare moment-map field.  Nodes whose fiber
    range does not contain tau are reported through OutOfRange (or returned
    as a mask when ``raise_on_miss`` is off); the miss set itself is the
    topology diagnostic used by the golden example.
    """
    if isinstance(K, KahlerData):
        grid = K.grid
        spline = K.mu_interp()
    else:
        grid = K.grid
        spline = K.interp()
    roots, missing, resid = spline.solve_decreasing(tau, tol_scale=root_tol)
    if np.any(missing):
        if raise_on_miss:
            raise OutOfRange(
                f"tau={tau} outside the fiber range at {int(np.sum(missing))} "
                "spatial nodes", missing=missing)
        roots = np.where(missing, grid.l[0], roots)
        return LevelSet(float(tau), ScalarFieldM(grid, roots), float("nan"),
                        0, missing)
    return LevelSet(float(tau), ScalarFieldM(grid, roots), resid, 0, None)


def reduce_scalar(f: ScalarFieldP, level) -> ScalarFieldM:
    """f_tau(x) = f(x, l_tau(x)) through the shared fiber interpolant."""
    l_tau = level.l_tau if isinstance(level, LevelSet) else level
    vals = f.interp().at(l_tau.values)
    return ScalarFieldM(f.grid, vals)


def _reduce_array(grid, values, l_tau):
    """Reduce a raw (possibly complex) P-array at l_tau."""
    if np.iscomplexobj(values):
        re = FiberInterp(grid.l, values.real).at(l_tau)
        im = FiberInterp(grid.l, values.imag).at(l_tau)
        return re + 1j * im
    return FiberInterp(grid.l, values).at(l_tau)


def reduce_form(theta: Form11P, level: LevelSet):
    """Reduction of an invariant 2-form at a level set.

    Pulls the frame components back to the level, eliminating the angular
    direction; returns the reduced (1,1)-form on M together with the sup of
    the leftover angular component (zero, up to discretization, exactly when
    the form is reducible at this level).
    """
    grid = theta.grid
    lt = level.l_tau.values
    L = grid.dz_stripped(lt)
    wm = grid.mixed_weight
    g11 = _reduce_array(grid, theta.g11, lt)
    g12 = _reduce_array(grid, theta.g12, lt)
    g22 = _reduce_array(grid, theta.g22, lt)
    h = g11 + np.real(g12 * np.conj(L)) * wm
    angular = g12 + g22 * L
    if theta.b20 is not None:
        b = _reduce_array(grid, theta.b20, lt)
        h = h + np.imag(b * np.conj(L)) * wm
        angular = angular + 1j * b
    ang_sup = float(np.max(np.abs(angular) * np.sqrt(wm)))
    return Form11M(grid, h), ang_sup


def reduced_potential(K: KahlerData, tau: float, root_tol=1e-12,
                      require_positive=True) -> ReductionResult:
    """Reduced potential psi_tau and reduced form omega_tau = sigma + dd^c psi_tau.

    psi is the invariant field phi + ((mu - c)/2) l.
    """
    grid = K.grid
    level = level_set(K, tau, root_tol=root_tol)
    psi_p = ScalarFieldP(
        grid, K.phi.values + 0.5 * (K.mu.values - K.c) * grid.l)
    psi_tau = reduce_scalar(psi_p, level)
    omega_tau = K.sigma + ddc_m(psi_tau)
    mineig = float(np.min(omega_tau.h))
    if require_positive and mineig <= 0.0:
        raise NotPositive(
            f"omega_tau degenerates at tau={tau} (min component {mineig:.3e})",
            eigenvalue=mineig)
    return ReductionResult(float(tau), level.l_tau, psi_tau, omega_tau,
                           level.max_residual, mineig)


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


def check_dertau(K: KahlerData, f: ScalarFieldP, tau: float,
                 dtau: float = 1e-4) -> ResidualReport:
    """d(f_tau)/dtau against the reduction of JV(f)/|V|^2."""
    grid = K.grid
    up = reduce_scalar(f, level_set(K, tau + dtau))
    dn = reduce_scalar(f, level_set(K, tau - dtau))
    lhs = (up.values - dn.values) / (2.0 * dtau)
    rhs = reduce_scalar(jv_apply(f) / K.vsq, level_set(K, tau))
    linf, l2 = _m_norms(grid, lhs - rhs.values)
    return ResidualReport("dertau", grid.meta(), linf, l2,
                          extra={"tau": tau, "dtau": dtau})


def check_dcred(K: KahlerData, f: ScalarFieldP, tau: float) -> ResidualReport:
    """Spatial differential of f_tau against the reduced combination
    d^c f - (JV(f)/|V|^2) d^c mu, compared through holomorphic components."""
    grid = K.grid
    level = level_set(K, tau)
    f_tau = reduce_scalar(f, level)
    lhs = grid.dz_stripped(f_tau.values)
    g = jv_apply(f) / K.vsq
    combo = grid.dz_stripped(f.values) - g.values * grid.dz_stripped(K.mu.values)
    rhs = _reduce_array(grid, combo, level.l_tau.values)
    gap = np.abs(lhs - rhs) * np.sqrt(grid.mixed_weight)
    linf, l2 = _m_norms(grid, gap)
    return ResidualReport("dcred", grid.meta(), linf, l2, extra={"tau": tau})


def ma_reduced(K: KahlerData, f: ScalarFieldP, tau: float) -> ResidualReport:
    """Monge-Ampere ratio on the base against the reduced total-space ratio."""
    grid = K.grid
    level = level_set(K, tau)
    red = reduced_potential(K, tau)
    f_tau = reduce_scalar(f, level)
    num_m = red.omega_tau + ddc_m(f_tau)
    lhs = num_m.h / red.omega_tau.h

    g = jv_apply(f) / K.vsq
    xi = K.omega + ddc_p(f) - d_wedge_dc(g, K.mu)
    num_p = wedge_square(xi).t
    den_p = wedge_square(K.omega).t
    if np.any(np.abs(den_p) < 1e-14):
        raise Degenerate("total-space volume density vanishes")
    rhs = _reduce_array(grid, num_p / den_p, level.l_tau.values)
    linf, l2 = _m_norms(grid, lhs - rhs)
    return ResidualReport("ma_reduced", grid.meta(), linf, l2,
                          extra={"tau": tau})


def laplace_reduced(K: KahlerData, f: ScalarFieldP, tau: float) -> ResidualReport:
    """Laplacian of f_tau on the reduced metric against the reduction of the
    descended second-order operator on the total space."""
    from .curvature import laplacian_m, laplacian_p

    grid = K.grid
    level = level_set(K, tau)
    red = reduced_potential(K, tau)
    f_tau = reduce_scalar(f, level)
    lhs = laplacian_m(f_tau, red.omega_tau).values

    jvf = jv_apply(f)
    corr = laplacian_p(K.mu, K) - jv_apply(K.log_v())
    rhs_p = (laplacian_p(f, K)
             - corr * jvf / K.vsq
             - jv_apply(jvf) / (2.0 * K.vsq))
    rhs = reduce_scalar(rhs_p, level)
    linf, l2 = _m_norms(grid, lhs - rhs.values)
    return ResidualReport("laplace_reduced", grid.meta(), linf, l2,
                          extra={"tau": tau})
