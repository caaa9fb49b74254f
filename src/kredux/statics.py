"""Static equations on the total space whose reductions trace geometric flows.

Each ``residual_*`` evaluator returns interior norms of the pointwise
residual of one static equation on given data, together with the matching
reduced-equivalence residual: the quantity on reductions that vanishes
exactly when the corresponding flow holds for the family of reduced metrics,
whatever invariant structure produced them.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .curvature import (descending_scalar, laplacian_p, ricci_m, ricci_p,
                        scal_m)
from .fields import (Form11P, ScalarFieldP, ddc_m, d_wedge_dc, ddc_p,
                     integrate_m, interior_norms, jv_apply)
from .interp import FiberSpline
from .reports import ResidualReport
from .reduction import default_taus, level_set, reduce_scalar, reduced_potential
from .structure import KahlerData, assemble


class Profile:
    """A function of the reduction level: tabulated with cubic interpolation,
    or wrapping an analytic callable directly."""

    def __init__(self, taus, values):
        self.taus = np.asarray(taus, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._fn = CubicSpline(self.taus, self.values)

    @classmethod
    def from_callable(cls, fn, taus=None):
        p = cls.__new__(cls)
        p.taus = None if taus is None else np.asarray(taus, dtype=float)
        p.values = None
        p._fn = fn
        return p

    def __call__(self, x):
        return np.asarray(self._fn(np.asarray(x, dtype=float)))


def constant_profile(value):
    return Profile.from_callable(lambda x: np.full_like(np.asarray(x, float), value))


EQUATION_IDS = ("geodesic", "calabi", "pseudo_calabi", "kr_unnormalized",
                "v_soliton")


class StaticEquation:
    """One of the five static equations, with its optional level profile."""

    def __init__(self, equation_id, profile: Profile | None = None):
        if equation_id not in EQUATION_IDS:
            raise ValueError(f"unknown static equation {equation_id!r}")
        self.equation_id = equation_id
        self.profile = profile

    def residual(self, K, taus=None) -> "ResidualReport":
        if self.equation_id == "geodesic":
            return residual_geodesic(K, self.profile or constant_profile(1.0),
                                     taus=taus)
        if self.equation_id == "calabi":
            h = self.profile or h_canonical(K, taus)
            return residual_calabi(K, h, taus=taus)
        if self.equation_id == "pseudo_calabi":
            return residual_pseudo_calabi(K, taus=taus)
        if self.equation_id == "kr_unnormalized":
            return residual_kr(K, taus=taus)
        lam = lambda_mean(K.sigma)
        f = self.profile or Profile.from_callable(lambda m: lam * m * m / 4.0)
        return residual_v_soliton(K, f)


# ---------------------------------------------------------------------------
# normalization quantities
# ---------------------------------------------------------------------------


def lambda_mean(sigma) -> float:
    """Mean scalar curvature of the class: integral scal(sigma) dV / volume."""
    s = scal_m(sigma)
    return integrate_m(s, sigma) / integrate_m(np.ones(sigma.grid.spatial_shape), sigma)


def h_canonical(K: KahlerData, taus=None) -> Profile:
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
    return Profile(taus, vals)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _p_norms(K, values):
    return interior_norms(values, K.grid.interior_p())


def _form_norms(K, theta: Form11P):
    mags = theta.component_magnitudes()
    stack = np.maximum.reduce(mags)
    return _p_norms(K, stack)


def _spatial_constancy(K, field_p: ScalarFieldP, taus):
    """[tau, sup deviation from the spatial mean of the reduction] pairs."""
    grid = K.grid
    mask = grid.interior_m()
    out = []
    for tau in taus:
        red = reduce_scalar(field_p, level_set(K, tau)).values
        dev = red - np.mean(red[mask])
        out.append([float(tau), float(np.max(np.abs(dev[mask])))])
    return out


def _s_field(K) -> ScalarFieldP:
    return ScalarFieldP(K.grid, np.broadcast_to(np.exp(K.grid.l), K.grid.p_shape).copy())


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------


def residual_geodesic(K: KahlerData, h: Profile, taus=None) -> ResidualReport:
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
    rep = ResidualReport("geodesic", K.grid.meta(), linf, l2,
                         reduced_by_tau=_spatial_constancy(K, ds / s, taus))
    rep.extra["dominant"] = _p_norms(K, s.values)[0]
    return rep


def residual_calabi(K: KahlerData, h: Profile, taus=None) -> ResidualReport:
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

    mask = grid.interior_m()
    by_tau = []
    for tau in taus:
        red = reduced_potential(K, tau)
        q = red.l_tau.values - scal_m(red.omega_tau).values
        dev = q - np.mean(q[mask])
        by_tau.append([float(tau), float(np.max(np.abs(dev[mask])))])
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
    drift = laplacian_p(K.mu, K) - jv_apply(K.log_v())
    resid = R.values + 2.0 * drift.values / K.vsq.values - lam
    linf, l2 = _p_norms(K, resid)

    # reduced identity, evaluated downstairs: the level velocity of the
    # reduced potentials is (1/2) l_tau, so the coupled-flow statement is
    # scal(g_tau) + D_tau((1/2) l_tau) = lambda.
    from .curvature import laplacian_m

    grid = K.grid
    mask = grid.interior_m()
    by_tau = []
    for tau in taus:
        red = reduced_potential(K, tau)
        q = (scal_m(red.omega_tau).values
             + 0.5 * laplacian_m(red.l_tau, red.omega_tau).values)
        by_tau.append([float(tau), float(np.max(np.abs(q[mask] - lam)))])
    rep = ResidualReport("pseudo_calabi", grid.meta(), linf, l2,
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
    log_v = K.log_v()
    drift = laplacian_p(K.mu, K) - jv_apply(log_v)
    g = (drift + 1.0) / K.vsq
    ric = ricci_p(K)
    theta = ric + ddc_p(log_v) + d_wedge_dc(g, K.mu)
    linf, l2 = _form_norms(K, theta)

    grid = K.grid
    mask = grid.interior_m()
    by_tau = []
    for tau in taus:
        red = reduced_potential(K, tau)
        lhs = 0.5 * ddc_m(red.l_tau) + ricci_m(red.omega_tau)
        by_tau.append([float(tau), float(np.max(np.abs(lhs.h[mask])))])
    rep = ResidualReport("kr_unnormalized", grid.meta(), linf, l2,
                         reduced_by_tau=by_tau)
    rep.extra["dominant"] = _form_norms(K, ric + d_wedge_dc(
        ScalarFieldP(grid, np.ones(grid.p_shape)) / K.vsq, K.mu))[0]
    return rep


def residual_v_soliton(K: KahlerData, f_profile: Profile) -> ResidualReport:
    """Frame-component residual of the soliton-type static equation

        Ric(omega) + dd^c( log|V| + f(mu) ) = lambda omega.
    """
    lam = lambda_mean(K.sigma)
    combo = K.log_v() + ScalarFieldP(K.grid, f_profile(K.mu.values))
    ric = ricci_p(K)
    theta = ric + ddc_p(combo) - lam * K.omega
    linf, l2 = _form_norms(K, theta)
    rep = ResidualReport("v_soliton", K.grid.meta(), linf, l2)
    rep.extra["lambda"] = lam
    rep.extra["dominant"] = max(_form_norms(K, lam * K.omega)[0],
                                _form_norms(K, ric)[0])
    return rep


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
    fmu = f(K.mu.values) if not isinstance(f, Profile) else f(K.mu.values)
    integrand = fmu - K.mu.values
    psi_vals = 0.5 * FiberSpline(grid.l, integrand).antiderivative_from_end()
    phi_new = ScalarFieldP(grid, K.phi.values + psi_vals)
    return assemble(K.sigma, phi_new, K.c, require_positive=require_positive)
