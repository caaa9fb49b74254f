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

from .curvature import (descending_scalar, descent_drift, laplacian_m,
                        laplacian_p, log_v, log_v_terms, moment_laplacian,
                        ricci_m, ricci_p, scal_m)
from .fields import (Form11P, ScalarFieldP, ddc_m, d_wedge_dc, ddc_p,
                     integrate_m)
from .interp import FiberInterp, QuinticSpline
from .reports import ResidualReport
from .reduction import (default_taus, level_norms, level_sets, reduce_scalar,
                        reduced_potentials, sups_by_tau)
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


def _lambda(K: KahlerData) -> float:
    """:func:`lambda_mean` of the structure's sigma, kept with it."""
    return K.cached("lambda", lambda: lambda_mean(K.sigma))


def h_canonical(K: KahlerData, taus=None):
    """The unique level profile compatible with the scalar-curvature flow
    equation on reductions,

        h(tau) = lambda - (integral of log s_tau dV_tau) / vol,

    as the quintic spline through its values at the sorted, distinct ``taus``
    (extrapolated by its end pieces beyond them); on one level, the constant.
    """
    taus = default_taus(K) if taus is None else np.asarray(taus, dtype=float)
    taus = np.array(sorted(set(taus.tolist())))  # np.unique imports numpy.ma
    lam = _lambda(K)
    vals = []
    for red in reduced_potentials(K, taus):
        vol = integrate_m(np.ones(K.grid.spatial_shape), red.omega_tau)
        vals.append(lam - integrate_m(red.l_tau, red.omega_tau) / vol)
    if len(vals) == 1:
        return constant_profile(vals[0])
    return QuinticSpline(taus, vals)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _form_norms(K, theta: Form11P):
    return K.grid.interior_norms(theta.max_magnitude())


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
    grid = K.grid
    s = _s_field(K)
    ds = laplacian_p(s, K)
    resid = ds.values - h(K.mu.values) * s.values
    linf, l2 = grid.interior_norms(resid)
    ratio = ds / s
    norms = level_norms(grid, (reduce_scalar(ratio, lv).values
                               for lv in level_sets(K, taus)), centred=True)
    rep = ResidualReport("geodesic", grid.meta(), linf, l2,
                         reduced_by_tau=sups_by_tau(taus, norms))
    rep.extra["dominant"] = grid.interior_norms(s.values)[0]
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
    linf, l2 = grid.interior_norms(resid)
    norms = level_norms(grid, (red.l_tau.values - scal_m(red.omega_tau).values
                               for red in reduced_potentials(K, taus)),
                        centred=True)
    rep = ResidualReport("calabi", grid.meta(), linf, l2,
                         reduced_by_tau=sups_by_tau(taus, norms))
    rep.extra["dominant"] = max(grid.interior_norms(ell.values)[0],
                                grid.interior_norms(R.values)[0])
    return rep


def residual_pseudo_calabi(K: KahlerData, taus=None) -> ResidualReport:
    """Residual of  R + (2/|V|^2)(D mu - JV log|V|) = lambda.

    The reduced equivalence uses the single-weight combination
    (R + (D mu - JV log|V|)/|V|^2) reduced minus lambda, which is the one that
    vanishes along lifted solutions of the coupled flow; see the decisions
    notes on the doubled coefficient in the static form.
    """
    taus = default_taus(K) if taus is None else taus
    grid = K.grid
    lam = _lambda(K)
    R = descending_scalar(K)
    drift = descent_drift(K)
    resid = np.multiply(2.0, drift.values)
    resid /= K.vsq.values
    np.add(R.values, resid, out=resid)
    resid -= lam
    linf, l2 = grid.interior_norms(resid)
    del resid

    # reduced identity, evaluated downstairs: the level velocity of the
    # reduced potentials is (1/2) l_tau, so the coupled-flow statement is
    # scal(g_tau) + D_tau((1/2) l_tau) = lambda.
    norms = level_norms(grid, (
        scal_m(red.omega_tau).values
        + 0.5 * laplacian_m(red.l_tau, red.omega_tau).values - lam
        for red in reduced_potentials(K, taus)))
    rep = ResidualReport("pseudo_calabi", grid.meta(), linf, l2,
                         reduced_by_tau=sups_by_tau(taus, norms))
    rep.extra["lambda"] = lam
    rep.extra["dominant"] = max(grid.interior_norms(R.values)[0], abs(lam))
    return rep


def residual_kr(K: KahlerData, taus=None) -> ResidualReport:
    """Frame-component residual of the unnormalized Ricci-flow static equation

        Ric(omega) + dd^c log|V|
            + d( ((D mu - JV log|V| + 1)/|V|^2) d^c mu ) = 0.

    Reduced equivalence: || (1/2) dd^c log s_tau + Ric(omega_tau) ||_inf.

    No Ricci form is kept: the residual and then the dominant term
    Ric(omega) + d(|V|^-2 d^c mu) are each built in a fresh one, into which
    the other terms are added as they are finished.  Beyond the structure's
    kept arrays, the peak holds that form, one scalar and the scratch of
    ``d_wedge_dc`` or of ``ddc_p``.
    """
    taus = default_taus(K) if taus is None else taus
    grid = K.grid
    moment_laplacian(K)  # kept; built before the first form is held
    g, theta = log_v_terms(K, into=ricci_p(K))
    g.values += 1.0
    g.values /= K.vsq.values
    theta = d_wedge_dc(g, K, into=theta)
    del g
    linf, l2 = _form_norms(K, theta)
    del theta
    dominant = _form_norms(K, d_wedge_dc(
        ScalarFieldP(grid, 1.0 / K.vsq.values), K, into=ricci_p(K)))[0]
    norms = level_norms(grid, ((0.5 * ddc_m(red.l_tau)
                                + ricci_m(red.omega_tau)).h
                               for red in reduced_potentials(K, taus)))
    rep = ResidualReport("kr_unnormalized", grid.meta(), linf, l2,
                         reduced_by_tau=sups_by_tau(taus, norms))
    rep.extra["dominant"] = dominant
    return rep


def residual_v_soliton(K: KahlerData, f_profile) -> ResidualReport:
    """Frame-component residual of the soliton-type static equation

        Ric(omega) + dd^c( log|V| + f(mu) ) = lambda omega.

    Ric(omega) is built fresh and its norm, part of the dominant term, taken
    first; the other terms are then added into it.
    """
    lam = _lambda(K)
    ric = ricci_p(K)
    ric_norm = _form_norms(K, ric)[0]
    combo = log_v(K) + ScalarFieldP(K.grid, f_profile(K.mu.values))
    theta = ddc_p(combo, into=ric)
    del combo, ric
    theta += (-lam) * K.omega
    linf, l2 = _form_norms(K, theta)
    del theta
    rep = ResidualReport("v_soliton", K.grid.meta(), linf, l2)
    rep.extra["lambda"] = lam
    rep.extra["dominant"] = max(_form_norms(K, lam * K.omega)[0], ric_norm)
    return rep


def _soliton_profile(K):
    """f(mu) = lambda mu^2 / 4, the profile of the round-sphere soliton."""
    lam = _lambda(K)
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


def reparametrize(K: KahlerData, f) -> KahlerData:
    """Post-compose the moment map with a strictly monotone f.

    Adds the invariant potential Psi with JV(Psi) = f(mu) - mu, realized as
    Psi(x, l) = (1/2) * integral_l^{l_max} (f(mu) - mu)(x, lam) dlam, and
    reassembles; the new moment map is f(mu) pointwise.
    """
    grid = K.grid
    integrand = f(K.mu.values) - K.mu.values
    from_min = FiberInterp(grid.l, integrand).antiderivative()
    psi_vals = 0.5 * (from_min[..., -1:] - from_min)
    phi_new = ScalarFieldP(grid, K.phi.values + psi_vals)
    return assemble(K.sigma, phi_new, K.c)
