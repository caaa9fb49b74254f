"""Ricci forms, scalar curvatures and Laplacians, on the base and upstairs.

Curvature on the total space is computed relative to the analytic product
reference (flat or round base times the standard cylinder) through the ratio
of top-form densities, so that reference fixtures are curvature-exact and no
raw determinant is differentiated twice without a smooth baseline.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP,
                     d_wedge_dc, ddc_p, interior_norms, jv_apply,
                     trace_against, wedge_square)
from .fixtures import reference_ricci, reference_sigma
from .reports import ResidualReport
from .structure import KahlerData


@lru_cache(maxsize=8)
def _reference_arrays(grid):
    """Read-only (H_ref, Ric(ref)) coefficients of the grid's canonical metric."""
    out = reference_sigma(grid).h, reference_ricci(grid).h
    for a in out:
        a.flags.writeable = False
    return out


def ricci_coefficient(grid, h):
    """Coefficient of the Ricci form of the base metric with coefficient ``h``.

    Ric = Ric(ref) - (1/2) dd^c log(H / H_ref), relative to the grid's
    canonical metric, whose Ricci form is supplied in closed form; the
    coefficient of (1/2) dd^c f is f_{z zbar}.
    """
    sigma_ref, ricci_ref = _reference_arrays(grid)
    return ricci_ref - grid.dzbar_dz(np.log(h / sigma_ref))


def ricci_m(omega: Form11M) -> Form11M:
    """Ricci form of a positive base metric, see :func:`ricci_coefficient`."""
    if not omega.is_positive():
        raise ValueError("ricci_m needs a positive form")
    return Form11M(omega.grid, ricci_coefficient(omega.grid, omega.h))


def scal_m(omega: Form11M) -> ScalarFieldM:
    """Scalar curvature: ratio of the Ricci and metric components."""
    ric = ricci_m(omega)
    return ScalarFieldM(omega.grid, ric.h / omega.h)


def laplacian_m(f: ScalarFieldM, omega: Form11M) -> ScalarFieldM:
    """Metric-trace Laplacian on the base: H^{-1} f_{z zbar}."""
    if not omega.is_positive():
        raise ValueError("laplacian_m needs a positive metric")
    grid = f.grid
    return ScalarFieldM(grid, grid.dzbar_dz(f.values) / omega.h)


def laplacian_p(f: ScalarFieldP, K: KahlerData) -> ScalarFieldP:
    """Metric-trace Laplacian on the total space: (1/2) tr(G^{-1} dd^c f)."""
    return ScalarFieldP(f.grid, 0.5 * trace_against(K.omega, ddc_p(f),
                                                    K.omega_det()))


def ricci_p(K: KahlerData) -> Form11P:
    """Ricci form of omega through the product-reference volume ratio."""
    grid = K.grid
    sigma_ref, ricci_ref = _reference_arrays(grid)
    density = wedge_square(K.omega).t
    log_f = ScalarFieldP(grid, np.log(density / (2.0 * sigma_ref[..., None])))
    ddc = ddc_p(log_f)
    return Form11P(grid, ricci_ref[..., None] + ddc.g11 * -0.5,
                   ddc.g12 * -0.5, ddc.g22 * -0.5)


def cached_ricci_p(K: KahlerData) -> Form11P:
    """:func:`ricci_p`, computed once per structure."""
    return K.cached("ricci_p", lambda: ricci_p(K))


def scal_p(K: KahlerData) -> ScalarFieldP:
    """Scalar curvature of the total-space metric."""
    return ScalarFieldP(K.grid, trace_against(K.omega, cached_ricci_p(K),
                                              K.omega_det()))


def moment_laplacian(K: KahlerData) -> ScalarFieldP:
    """D mu, from the structure's dd^c mu, computed once per structure."""
    return K.cached("laplacian_mu", lambda: ScalarFieldP(
        K.grid, 0.5 * trace_against(K.omega, K.ddc_mu(), K.omega_det())))


def descent_drift(K: KahlerData) -> ScalarFieldP:
    """The drift D mu - JV log|V| of the descending forms, computed once per
    structure."""
    return K.cached("drift",
                    lambda: moment_laplacian(K) - jv_apply(K.log_v()))


def descending_ricci(K: KahlerData) -> Form11P:
    """The 2-form upstairs whose reduction is the Ricci form of every
    reduced metric:

        Ric(omega) + dd^c log|V| + d( ((D mu - JV log|V|) / |V|^2) d^c mu ).
    """
    g = descent_drift(K) / K.vsq
    return cached_ricci_p(K) + ddc_p(K.log_v()) + d_wedge_dc(g, K)


def descending_scalar(K: KahlerData) -> ScalarFieldP:
    """The scalar upstairs that reduces to scal of every reduced metric:

        scal(g) + 2 D log|V| + (2/|V|^2) (D mu - JV log|V|)^2
                + JV(D mu - JV log|V|) / |V|^2.
    """
    drift = descent_drift(K)
    return (scal_p(K)
            + 2.0 * laplacian_p(K.log_v(), K)
            + 2.0 * drift * drift / K.vsq
            + jv_apply(drift) / K.vsq)


def check_moment_ricci_identity(K: KahlerData) -> ResidualReport:
    """Residual of  i_V Ric(omega) + d(D mu) = 0  in frame components."""
    from .fields import contract_v

    grid = K.grid
    ric = cached_ricci_p(K)
    dmu = moment_laplacian(K)
    cv = contract_v(ric)
    res_z = cv.z + grid.dz_stripped(dmu.values)
    res_l = cv.l + grid.d_l(dmu.values, 1)
    mask = grid.interior_p()
    mags = np.maximum(np.abs(res_z) * np.sqrt(grid.mixed_weight[..., None]),
                      np.abs(res_l))
    linf, l2 = interior_norms(mags, mask)
    return ResidualReport("moment_ricci", grid.meta(), linf, l2)
