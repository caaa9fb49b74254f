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
                     d_wedge_dc, ddc_p, jv_apply, trace_against)
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


def _trace_laplacian(K: KahlerData, ddc_f: Form11P) -> ScalarFieldP:
    """(1/2) tr(G^{-1} dd^c f), from a given dd^c f."""
    return ScalarFieldP(K.grid, 0.5 * trace_against(K.omega, ddc_f,
                                                    K.omega_det()))


def laplacian_p(f: ScalarFieldP, K: KahlerData, dl_f=None) -> ScalarFieldP:
    """Metric-trace Laplacian on the total space: (1/2) tr(G^{-1} dd^c f).
    ``dl_f`` may supply f's fiber slope, as for :func:`~kredux.fields.ddc_p`."""
    return _trace_laplacian(K, ddc_p(f, dl_f))


def ricci_p(K: KahlerData) -> Form11P:
    """Ricci form of omega through the product-reference volume ratio."""
    sigma_ref, ricci_ref = _reference_arrays(K.grid)
    # omega /\ omega: K.omega has no (2,0) part
    log_f = np.multiply(K.omega_det(), 2.0)
    log_f /= 2.0 * sigma_ref[..., None]
    np.log(log_f, out=log_f)
    ric = ddc_p(ScalarFieldP(K.grid, log_f))
    del log_f
    for comp in ric.g11, ric.g12, ric.g22:
        comp *= -0.5
    np.add(ricci_ref[..., None], ric.g11, out=ric.g11)
    return ric


def cached_ricci_p(K: KahlerData) -> Form11P:
    """:func:`ricci_p`, computed once per structure."""
    return K.cached("ricci_p", lambda: ricci_p(K))


def scal_p(K: KahlerData) -> ScalarFieldP:
    """Scalar curvature of the total-space metric."""
    return ScalarFieldP(K.grid, trace_against(K.omega, cached_ricci_p(K),
                                              K.omega_det()))


def moment_laplacian(K: KahlerData) -> ScalarFieldP:
    """D mu, from the structure's dd^c mu, computed once per structure."""
    return K.cached("laplacian_mu", lambda: _trace_laplacian(K, K.ddc_mu()))


def log_v_terms(K: KahlerData, into: Form11P | None = None):
    """The drift D mu - JV log|V| and dd^c log|V|, in that order, both from
    one fiber slope of log|V|; neither is kept.  Given ``into``, the second
    is ``into`` plus dd^c log|V|, added in place as by
    :func:`~kredux.fields.ddc_p`."""
    moment_laplacian(K)  # kept; built before the slope is held
    log_v = K.log_v()
    dl_log_v = K.grid.d_l(log_v.values, 1)
    ddc_log_v = ddc_p(log_v, dl_log_v, into)
    return [moment_laplacian(K) - jv_apply(log_v, dl_log_v), ddc_log_v]


def _log_v_terms(K: KahlerData):
    """:func:`log_v_terms`, kept with ``K``: both are stored together, when
    either is first asked for."""
    return K.cache_new(("drift", "ddc_log_v"), lambda new: log_v_terms(K))


def descent_drift(K: KahlerData) -> ScalarFieldP:
    """The drift D mu - JV log|V| of the descending forms, computed once per
    structure, with :func:`ddc_log_v`."""
    return _log_v_terms(K)[0]


def ddc_log_v(K: KahlerData) -> Form11P:
    """dd^c log|V|, computed once per structure, with :func:`descent_drift`."""
    return _log_v_terms(K)[1]


def descending_ricci(K: KahlerData) -> Form11P:
    """The 2-form upstairs whose reduction is the Ricci form of every
    reduced metric:

        Ric(omega) + dd^c log|V| + d( ((D mu - JV log|V|) / |V|^2) d^c mu ).

    Its peak holds the structure's kept forms, the new sum of the first two
    terms and the scratch of ``d_wedge_dc``, which adds the third term into
    the sum a block of rows at a time.
    """
    g = descent_drift(K) / K.vsq
    return d_wedge_dc(g, K, into=cached_ricci_p(K) + ddc_log_v(K))


def descending_scalar(K: KahlerData) -> ScalarFieldP:
    """The scalar upstairs that reduces to scal of every reduced metric:

        scal(g) + 2 D log|V| + (2/|V|^2) (D mu - JV log|V|)^2
                + JV(D mu - JV log|V|) / |V|^2.
    """
    drift = descent_drift(K)
    return (scal_p(K)
            + 2.0 * _trace_laplacian(K, ddc_log_v(K))
            + 2.0 * drift * drift / K.vsq
            + jv_apply(drift) / K.vsq)


def check_moment_ricci_identity(K: KahlerData) -> ResidualReport:
    """Residual of  i_V Ric(omega) + d(D mu) = 0  in frame components.

    i_V Ric is read off Ric's own components, z = -g12 (- i b20) and
    l = -g22, and x + (-y) is taken as x - y, which rounds the same.
    Beyond the kept Ric and D mu, its peak holds the two residual components
    and the magnitudes, formed in place.
    """
    grid = K.grid
    ric = cached_ricci_p(K)
    dmu = moment_laplacian(K)
    res_z = np.negative(ric.g12)
    if ric.b20 is not None:
        res_z -= 1j * ric.b20
    res_z += grid.dz_stripped(dmu.values)
    res_l = grid.d_l(dmu.values, 1)
    res_l -= ric.g22
    mags = np.abs(res_z)
    del res_z
    mags *= np.sqrt(grid.mixed_weight[..., None])
    np.maximum(mags, np.abs(res_l, out=res_l), out=mags)
    linf, l2 = grid.interior_norms(mags)
    return ResidualReport("moment_ricci", grid.meta(), linf, l2)
