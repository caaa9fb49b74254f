"""Ricci forms, scalar curvatures and Laplacians, on the base and upstairs.

Curvature on the total space is computed relative to the analytic product
reference (flat or round base times the standard cylinder) through the ratio
of top-form densities, so that reference fixtures are curvature-exact and no
raw determinant is differentiated twice without a smooth baseline.

No Ricci form is kept with a structure: every caller builds a fresh one,
and :func:`descending_forms` builds the descending Ricci form, the
descending scalar and the moment-Ricci report from a single one.  Of the
terms of the descending forms, only the drift D mu - JV log|V| and the
fiber slope of log|V| it is built from are kept.
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
    return ScalarFieldP(K.grid, 0.5 * trace_against(K, ddc_f))


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


def scal_p(K: KahlerData) -> ScalarFieldP:
    """Scalar curvature of the total-space metric, from a fresh Ricci form."""
    return ScalarFieldP(K.grid, trace_against(K, ricci_p(K)))


def moment_laplacian(K: KahlerData) -> ScalarFieldP:
    """D mu, from the structure's dd^c mu, computed once per structure."""
    return K.cached("laplacian_mu", lambda: _trace_laplacian(K, K.ddc_mu()))


def log_v(K: KahlerData) -> ScalarFieldP:
    """log |V| = log(|V|^2)/2, built fresh: no structure keeps it."""
    return ScalarFieldP(K.grid, 0.5 * np.log(K.vsq.values))


def _drift(K: KahlerData, log_v_field, dl_log_v) -> ScalarFieldP:
    """D mu - JV log|V|, from the fiber slope of log|V|."""
    return moment_laplacian(K) - jv_apply(log_v_field, dl_log_v)


def _log_v_slope(K: KahlerData, log_v_field) -> np.ndarray:
    """d_l log|V|, the one fiber slope of log|V|, kept with ``K``."""
    return K.cached("dl_log_v", lambda: K.grid.d_l(log_v_field.values, 1))


def log_v_terms(K: KahlerData, into: Form11P | None = None):
    """The drift D mu - JV log|V| and dd^c log|V|, in that order, both from
    one fiber slope of log|V| taken here; neither is kept, nor is the slope.
    Given ``into``, the second is ``into`` plus dd^c log|V|, added in place
    as by :func:`~kredux.fields.ddc_p`."""
    moment_laplacian(K)  # kept; built before the slope is held
    lv = log_v(K)
    dl_log_v = K.grid.d_l(lv.values, 1)
    ddc_log_v = ddc_p(lv, dl_log_v, into)
    return [_drift(K, lv, dl_log_v), ddc_log_v]


def descent_drift(K: KahlerData) -> ScalarFieldP:
    """The drift D mu - JV log|V| of the descending forms, computed once per
    structure, from the kept fiber slope of log|V|."""
    def build():
        moment_laplacian(K)  # kept; built before log|V| is held
        lv = log_v(K)
        return _drift(K, lv, _log_v_slope(K, lv))
    return K.cached("drift", build)


def check_moment_ricci_identity(K: KahlerData,
                                ric: Form11P | None = None) -> ResidualReport:
    """Residual of  i_V Ric(omega) + d(D mu) = 0  in frame components, read
    off ``ric``, a Ricci form of ``K``, which is built fresh when not given.

    i_V Ric is read off Ric's own components, z = -g12 (- i b20) and
    l = -g22, and x + (-y) is taken as x - y, which rounds the same.
    Beyond the Ricci form and the kept D mu, its peak holds the two
    residual components and the magnitudes, formed in place.
    """
    grid = K.grid
    dmu = moment_laplacian(K)  # kept; built before the form is held
    if ric is None:
        ric = ricci_p(K)
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


def descending_forms(K: KahlerData, form=True, scalar=True, identity=False):
    """The descending Ricci form rho, the descending scalar R and the report
    of :func:`check_moment_ricci_identity`, each when asked for (else None),
    from one fresh Ricci form:

        rho = Ric(omega) + dd^c log|V| + d( (drift / |V|^2) d^c mu ),
        R   = scal(g) + 2 D log|V| + (2/|V|^2) drift^2 + JV(drift) / |V|^2,

    drift = D mu - JV log|V| (:func:`descent_drift`).  In order: the report
    is read off the Ricci form and its trace taken; dd^c log|V|, built from
    the kept slope of log|V|, is traced and then added into the Ricci form;
    R is summed, and d(g d^c mu) is added into the form by ``d_wedge_dc``.
    Each sum takes the operations of the expressions above in their order,
    so the bits do not depend on what is asked for.  Beyond ``K``'s kept
    geometry, the peak holds the form, R and the scratch of one step.
    """
    rho = big_r = report = None
    grid, vsq = K.grid, K.vsq.values
    drift = descent_drift(K)  # kept; built before any form is held
    ric = ricci_p(K)
    if identity:
        report = check_moment_ricci_identity(K, ric)
    if scalar:
        r = trace_against(K, ric)
    lv = log_v(K)
    ddc_log_v = ddc_p(lv, _log_v_slope(K, lv))
    del lv
    if scalar:
        part = _trace_laplacian(K, ddc_log_v).values
        part *= 2.0
        r += part
    if form:
        ric += ddc_log_v
    del ddc_log_v
    if scalar:
        part = np.multiply(2.0, drift.values)
        part *= drift.values
        part /= vsq
        r += part
        part = jv_apply(drift).values
        part /= vsq
        r += part
        del part
        big_r = ScalarFieldP(grid, r)
    if form:
        rho = d_wedge_dc(drift / K.vsq, K, into=ric)
    return rho, big_r, report


def descending_ricci(K: KahlerData) -> Form11P:
    """The 2-form upstairs whose reduction is the Ricci form of every
    reduced metric:

        Ric(omega) + dd^c log|V| + d( ((D mu - JV log|V|) / |V|^2) d^c mu ),

    built by :func:`descending_forms` in a fresh Ricci form.
    """
    return descending_forms(K, scalar=False)[0]


def descending_scalar(K: KahlerData) -> ScalarFieldP:
    """The scalar upstairs that reduces to scal of every reduced metric:

        scal(g) + 2 D log|V| + (2/|V|^2) (D mu - JV log|V|)^2
                + JV(D mu - JV log|V|) / |V|^2,

    built by :func:`descending_forms`.
    """
    return descending_forms(K, form=False)[1]
