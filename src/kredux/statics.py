"""Static equations on the total space whose reductions trace geometric flows.

Each ``residual_*`` evaluator returns interior norms of the pointwise
residual of one static equation on given data, together with the matching
reduced-equivalence residual: the quantity on reductions that vanishes
exactly when the corresponding flow holds for the family of reduced metrics,
whatever invariant structure produced them.  A level profile h(mu) is any
callable of an array of levels.  ``RESIDUALS`` runs each equation with its
default profile, keyed by the command-line name.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .curvature import (cached_ricci_p, descending_scalar, descent_drift,
                        laplacian_m, laplacian_p, ricci_m, scal_m)
from .fields import (Form11P, ScalarFieldP, ddc_m, d_wedge_dc, ddc_p,
                     integrate_m, interior_norms)
from .interp import FiberSpline
from .reports import ResidualReport
from .reduction import default_taus, level_set, reduce_scalar, reduced_potential
from .structure import KahlerData, assemble


def constant_profile(value):
    return lambda x: np.full_like(np.asarray(x, float), value)


# ---------------------------------------------------------------------------
# normalization quantities
# ---------------------------------------------------------------------------


def lambda_mean(sigma) -> float:
    """Mean scalar curvature of the class: integral scal(sigma) dV / volume."""
    s = scal_m(sigma)
    return integrate_m(s, sigma) / integrate_m(np.ones(sigma.grid.spatial_shape), sigma)


def h_canonical(K: KahlerData, taus=None) -> CubicSpline:
    """The unique level profile compatible with the scalar-curvature flow
    equation on reductions:

        h(tau) = lambda - (integral of log s_tau dV_tau) / vol.
    """
    taus = default_taus(K) if taus is None else np.asarray(taus, dtype=float)
    lam = lambda_mean(K.sigma)
    vals = []
    for tau in taus:
        red = reduced_potential(K, tau)
        vol = integrate_m(np.ones(K.grid.spatial_shape), red.omega_tau)
        vals.append(lam - integrate_m(red.l_tau, red.omega_tau) / vol)
    return CubicSpline(taus, vals)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _p_norms(K, values):
    return interior_norms(values, K.grid.interior_p())


def _form_norms(K, theta: Form11P):
    mags = theta.component_magnitudes()
    stack = np.maximum.reduce(mags)
    return _p_norms(K, stack)


def _sweep(K, taus, at, quantity, centred=False):
    """[tau, sup |quantity(at(K, tau))| over interior base nodes] pairs;
    ``centred`` takes the deviation from the interior mean instead."""
    mask = K.grid.interior_m()
    out = []
    for tau in taus:
        q = quantity(at(K, tau))[mask]
        if centred:
            q = q - np.mean(q)
        out.append([float(tau), float(np.max(np.abs(q)))])
    return out


def _s_field(K) -> ScalarFieldP:
    return ScalarFieldP(K.grid, np.broadcast_to(np.exp(K.grid.l), K.grid.p_shape).copy())


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------


def residual_geodesic(K: KahlerData, h, taus=None) -> ResidualReport:
    """Residual of  D s = h(mu) s.

    Reduced equivalence: the reduction of D s / s must be spatially constant
    at every level (its value is the second derivative of the normalization
    gauge along the family).
    """
    taus = default_taus(K) if taus is None else taus
    s = _s_field(K)
    ds = laplacian_p(s, K)
    resid = ds.values - h(K.mu.values) * s.values
    linf, l2 = _p_norms(K, resid)
    ratio = ds / s
    by_tau = _sweep(K, taus, level_set,
                    lambda lv: reduce_scalar(ratio, lv).values, centred=True)
    rep = ResidualReport("geodesic", K.grid.meta(), linf, l2,
                         reduced_by_tau=by_tau)
    rep.extra["dominant"] = _p_norms(K, s.values)[0]
    return rep


def residual_calabi(K: KahlerData, h, taus=None) -> ResidualReport:
    """Residual of  R = log s + h(mu)  with R the descending scalar.

    Reduced equivalence: (log s - R) reduced must be spatially constant,
    which is the scalar-curvature flow identity on reductions.  It is
    evaluated downstairs as l_tau - scal(g_tau) (the descending scalar
    reduces to the scalar curvature), which stays well conditioned on
    lifted paths whose high time derivatives are large.
    """
    taus = default_taus(K) if taus is None else taus
    grid = K.grid
    R = descending_scalar(K)
    ell = ScalarFieldP(grid, np.broadcast_to(grid.l, grid.p_shape).copy())
    resid = R.values - ell.values - h(K.mu.values)
    linf, l2 = _p_norms(K, resid)
    by_tau = _sweep(K, taus, reduced_potential,
                    lambda red: red.l_tau.values - scal_m(red.omega_tau).values,
                    centred=True)
    rep = ResidualReport("calabi", grid.meta(), linf, l2, reduced_by_tau=by_tau)
    rep.extra["dominant"] = max(_p_norms(K, ell.values)[0], _p_norms(K, R.values)[0])
    return rep


def residual_pseudo_calabi(K: KahlerData, taus=None) -> ResidualReport:
    """Residual of  R + (2/|V|^2)(D mu - JV log|V|) = lambda.

    The reduced equivalence uses the single-weight combination
    (R + (D mu - JV log|V|)/|V|^2) reduced minus lambda, which is the one that
    vanishes along lifted solutions of the coupled flow; see the decisions
    notes on the doubled coefficient in the static form.
    """
    taus = default_taus(K) if taus is None else taus
    lam = lambda_mean(K.sigma)
    R = descending_scalar(K)
    drift = descent_drift(K)
    resid = R.values + 2.0 * drift.values / K.vsq.values - lam
    linf, l2 = _p_norms(K, resid)

    # reduced identity, evaluated downstairs: the level velocity of the
    # reduced potentials is (1/2) l_tau, so the coupled-flow statement is
    # scal(g_tau) + D_tau((1/2) l_tau) = lambda.
    by_tau = _sweep(K, taus, reduced_potential, lambda red: (
        scal_m(red.omega_tau).values
        + 0.5 * laplacian_m(red.l_tau, red.omega_tau).values - lam))
    rep = ResidualReport("pseudo_calabi", K.grid.meta(), linf, l2,
                         reduced_by_tau=by_tau)
    rep.extra["lambda"] = lam
    rep.extra["dominant"] = max(_p_norms(K, R.values)[0], abs(lam))
    return rep


def residual_kr(K: KahlerData, taus=None) -> ResidualReport:
    """Frame-component residual of the unnormalized Ricci-flow static equation

        Ric(omega) + dd^c log|V|
            + d( ((D mu - JV log|V| + 1)/|V|^2) d^c mu ) = 0.

    Reduced equivalence: || (1/2) dd^c log s_tau + Ric(omega_tau) ||_inf.
    """
    taus = default_taus(K) if taus is None else taus
    g = (descent_drift(K) + 1.0) / K.vsq
    ric = cached_ricci_p(K)
    theta = ric + ddc_p(K.log_v()) + d_wedge_dc(g, K)
    linf, l2 = _form_norms(K, theta)
    by_tau = _sweep(K, taus, reduced_potential, lambda red: (
        0.5 * ddc_m(red.l_tau) + ricci_m(red.omega_tau)).h)
    grid = K.grid
    rep = ResidualReport("kr_unnormalized", grid.meta(), linf, l2,
                         reduced_by_tau=by_tau)
    rep.extra["dominant"] = _form_norms(K, ric + d_wedge_dc(
        ScalarFieldP(grid, np.ones(grid.p_shape)) / K.vsq, K))[0]
    return rep


def residual_v_soliton(K: KahlerData, f_profile) -> ResidualReport:
    """Frame-component residual of the soliton-type static equation

        Ric(omega) + dd^c( log|V| + f(mu) ) = lambda omega.
    """
    lam = lambda_mean(K.sigma)
    combo = K.log_v() + ScalarFieldP(K.grid, f_profile(K.mu.values))
    ric = cached_ricci_p(K)
    theta = ric + ddc_p(combo) - lam * K.omega
    linf, l2 = _form_norms(K, theta)
    rep = ResidualReport("v_soliton", K.grid.meta(), linf, l2)
    rep.extra["lambda"] = lam
    rep.extra["dominant"] = max(_form_norms(K, lam * K.omega)[0],
                                _form_norms(K, ric)[0])
    return rep


def _soliton_profile(K):
    """f(mu) = lambda mu^2 / 4, the profile of the round-sphere soliton."""
    lam = lambda_mean(K.sigma)
    return lambda m: lam * m * m / 4.0


# Each equation at its default profile, called as RESIDUALS[name](K, taus).
# The entries look the evaluators up by name when called, so a wrapper
# installed on the module attribute sees every call.
RESIDUALS = {
    "geodesic": lambda K, taus=None: residual_geodesic(
        K, constant_profile(1.0), taus=taus),
    "calabi": lambda K, taus=None: residual_calabi(
        K, h_canonical(K, taus), taus=taus),
    "pseudo_calabi": lambda K, taus=None: residual_pseudo_calabi(K, taus=taus),
    "kr": lambda K, taus=None: residual_kr(K, taus=taus),
    "v_soliton": lambda K, taus=None: residual_v_soliton(
        K, _soliton_profile(K)),
}


# ---------------------------------------------------------------------------
# moment-map reparametrization
# ---------------------------------------------------------------------------


def reparametrize(K: KahlerData, f, require_positive=True) -> KahlerData:
    """Post-compose the moment map with a strictly monotone f.

    Adds the invariant potential Psi with JV(Psi) = f(mu) - mu, realized as
    Psi(x, l) = (1/2) * integral_l^{l_max} (f(mu) - mu)(x, lam) dlam, and
    reassembles; the new moment map is f(mu) pointwise.
    """
    grid = K.grid
    integrand = f(K.mu.values) - K.mu.values
    psi_vals = 0.5 * FiberSpline(grid.l, integrand).antiderivative_from_end()
    phi_new = ScalarFieldP(grid, K.phi.values + psi_vals)
    return assemble(K.sigma, phi_new, K.c, require_positive=require_positive)
