"""The total-space form operators accumulate in place.  Each is checked bit
for bit against the one-expression form it replaced (kept here as the
reference), for not writing into its arguments or a structure's arrays, and
for the peak memory the in-place forms keep."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import kredux as kx
from kredux import curvature, verify
from kredux.curvature import (_reference_arrays, cached_ricci_p, ddc_log_v,
                              descent_drift, moment_laplacian)
from kredux.fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP,
                           trace_against)
from kredux.fixtures import battery_fixture, random_resolved_p
from kredux.grids import TestbedGrid as Grid
from kredux.verify import battery_once

from conftest import field_bytes, traced_peak


# -- the one-expression references ---------------------------------------------


def _b(form):
    if form.b20 is None:
        return np.zeros(form.grid.p_shape, dtype=complex)
    return form.b20


def ref_add(a, b):
    b20 = None
    if a.b20 is not None or b.b20 is not None:
        b20 = _b(a) + _b(b)
    return Form11P(a.grid, a.g11 + b.g11, a.g12 + b.g12, a.g22 + b.g22, b20)


def ref_sub(a, b):
    b20 = None
    if a.b20 is not None or b.b20 is not None:
        b20 = _b(a) - _b(b)
    return Form11P(a.grid, a.g11 - b.g11, a.g12 - b.g12, a.g22 - b.g22, b20)


def ref_mixed_sq(form):
    wm = form.grid.mixed_weight[..., None]
    return (form.g12.real**2 + form.g12.imag**2) * wm


def ref_det(form):
    return form.g11 * form.g22 - ref_mixed_sq(form)


def ref_min_eigenvalue(form):
    half_tr = 0.5 * (form.g11 + form.g22)
    gap = np.sqrt(0.25 * (form.g11 - form.g22) ** 2 + ref_mixed_sq(form))
    return half_tr - gap


def ref_max_magnitude(form):
    wm = np.sqrt(form.grid.mixed_weight)[..., None]
    mags = [np.abs(form.g11), np.abs(form.g12) * wm, np.abs(form.g22)]
    if form.b20 is not None:
        mags.append(np.abs(form.b20) * wm)
    return np.maximum.reduce(mags)


def ref_wedge_square(form):
    t = 2.0 * ref_det(form)
    if form.b20 is not None:
        wm = form.grid.mixed_weight[..., None]
        t = t + 2.0 * (form.b20.real**2 + form.b20.imag**2) * wm
    return t


def ref_trace_against(omega, theta):
    wm = omega.grid.mixed_weight[..., None]
    num = (omega.g22 * theta.g11 + omega.g11 * theta.g22
           - 2.0 * np.real(np.conj(omega.g12) * theta.g12) * wm)
    return num / ref_det(omega)


def ref_ddc_p(f):
    g = f.grid
    return Form11P(g, 2.0 * g.dzbar_dz(f.values),
                   2.0 * g.dz_stripped(g.d_l(f.values, 1)),
                   2.0 * g.d_l(f.values, 2))


def ref_d_wedge_dc(g_field, K):
    grid = g_field.grid
    dzg = grid.dz_stripped(g_field.values)
    dzmu = -K.omega.g12
    dlg = grid.d_l(g_field.values, 1)
    dlmu = -0.5 * K.vsq.values
    wm = grid.mixed_weight[..., None]
    ddc_mu = ref_ddc_p(K.mu)
    gv = g_field.values
    g11 = 2.0 * np.real(dzg * np.conj(dzmu)) * wm + gv * ddc_mu.g11
    g12 = dzg * dlmu + dzmu * dlg + gv * ddc_mu.g12
    g22 = 2.0 * dlg * dlmu + gv * ddc_mu.g22
    b20 = -1j * (dzg * dlmu - dlg * dzmu)
    return Form11P(grid, g11, g12, g22, b20)


def ref_ricci_p(K):
    grid = K.grid
    sigma_ref, ricci_ref = _reference_arrays(grid)
    density = ref_wedge_square(K.omega)
    log_f = ScalarFieldP(grid, np.log(density / (2.0 * sigma_ref[..., None])))
    ddc = ref_ddc_p(log_f)
    return Form11P(grid, ricci_ref[..., None] + ddc.g11 * -0.5,
                   ddc.g12 * -0.5, ddc.g22 * -0.5)


def ref_descending_ricci(K):
    log_v = ScalarFieldP(K.grid, 0.5 * np.log(K.vsq.values))
    d_mu = 0.5 * ref_trace_against(K.omega, ref_ddc_p(K.mu))
    drift = d_mu - -2.0 * K.grid.d_l(log_v.values, 1)
    g = ScalarFieldP(K.grid, drift / K.vsq.values)
    return ref_add(ref_add(ref_ricci_p(K), ref_ddc_p(log_v)),
                   ref_d_wedge_dc(g, K))


# -- fixtures --------------------------------------------------------------------


@pytest.fixture(scope="module", params=["torus", "radial"])
def K(request):
    if request.param == "torus":
        grid = kx.torus_grid(n=16, n_l=33, margin=4)
        return kx.perturbed(grid, 0.02)
    grid = kx.radial_grid(n_u=65, n_l=33, margin=4)
    return kx.perturbed(grid, 0.01)


@pytest.fixture(scope="module")
def fields(K):
    rng = np.random.default_rng(5)
    return [random_resolved_p(K.grid, rng, amplitude=0.3) for _ in range(2)]


@pytest.fixture(scope="module")
def forms(K, fields):
    """Two forms without a (2,0) part and two with one."""
    f, h = fields
    return {"pure": kx.ddc_p(f), "pure2": kx.ddc_p(h),
            "mixed": kx.d_wedge_dc(f, K), "mixed2": kx.d_wedge_dc(h, K)}


def assert_forms_equal(got, want):
    for name in ("g11", "g12", "g22"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.b20 is None) == (want.b20 is None)
    if want.b20 is not None:
        assert np.array_equal(got.b20, want.b20)


def _copy(form):
    return Form11P(form.grid, *(None if a is None else a.copy()
                                for a in (form.g11, form.g12, form.g22,
                                          form.b20)))


def _arrays(value, path):
    """(path, array) for every array reachable from ``value``."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (ScalarFieldM, ScalarFieldP, Form11M)):
        yield path, value.values
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif hasattr(value, "__dict__"):
        yield from _arrays(vars(value), path)


def _snapshot(*values):
    return {path: a.copy() for i, v in enumerate(values)
            for path, a in _arrays(v, f"arg{i}")}


def assert_unchanged(snapshot, *values):
    now = {path: a for i, v in enumerate(values)
           for path, a in _arrays(v, f"arg{i}")}
    for path, saved in snapshot.items():
        assert np.array_equal(now[path], saved), path


# -- bit-for-bit against the references -------------------------------------------


PAIRS = [("pure", "pure2"), ("pure", "mixed"), ("mixed", "pure"),
         ("mixed", "mixed2")]


@pytest.mark.parametrize("left,right", PAIRS)
def test_sum_and_difference_match_reference(forms, left, right):
    a, b = forms[left], forms[right]
    before = _snapshot(a, b)
    assert_forms_equal(a + b, ref_add(a, b))
    assert_forms_equal(a - b, ref_sub(a, b))
    acc = _copy(a)
    acc += b
    assert_forms_equal(acc, ref_add(a, b))
    acc = _copy(a)
    acc -= b
    assert_forms_equal(acc, ref_sub(a, b))
    assert_unchanged(before, a, b)


def test_in_place_sum_refuses_a_read_only_form(K, forms):
    cached = K.ddc_mu()
    with pytest.raises(ValueError):
        cached += forms["pure"]


@pytest.mark.parametrize("name", ["pure", "mixed", "omega"])
def test_pointwise_algebra_matches_reference(K, forms, name):
    form = K.omega if name == "omega" else forms[name]
    before = _snapshot(form)
    assert np.array_equal(form.mixed_sq(), ref_mixed_sq(form))
    assert np.array_equal(form.det(), ref_det(form))
    assert np.array_equal(form.min_eigenvalue(), ref_min_eigenvalue(form))
    assert np.array_equal(form.max_magnitude(), ref_max_magnitude(form))
    assert np.array_equal(kx.wedge_square(form), ref_wedge_square(form))
    want = ref_trace_against(K.omega, form)
    assert np.array_equal(trace_against(K.omega, form), want)
    assert np.array_equal(trace_against(K.omega, form, K.omega_det()), want)
    assert_unchanged(before, form)


def test_derivative_forms_match_reference(K, fields):
    f, h = fields
    before = _snapshot(K, f, h)
    assert_forms_equal(kx.ddc_p(f), ref_ddc_p(f))
    assert_forms_equal(kx.d_wedge_dc(h, K), ref_d_wedge_dc(h, K))
    assert_forms_equal(kx.ricci_p(K), ref_ricci_p(K))
    assert_unchanged(before, K, f, h)


def _same_bits(got, want):
    for name in ("g11", "g12", "g22", "b20", "values"):
        a, b = getattr(got, name, None), getattr(want, name, None)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_given_fiber_slope_gives_the_same_bits(K, fields):
    f, _ = fields
    dl_f = K.grid.d_l(f.values, 1)
    taus = kx.default_taus(K, count=3, shrink=0.3)
    before = _snapshot(K, f, dl_f)
    _same_bits(kx.jv_apply(f, dl_f), kx.jv_apply(f))
    _same_bits(kx.ddc_p(f, dl_f), kx.ddc_p(f))
    _same_bits(kx.laplacian_p(f, K, dl_f), kx.laplacian_p(f, K))
    for check in (kx.check_dcred, kx.laplace_reduced):
        assert check(K, f, taus, dl_f=dl_f).to_dict() == \
            check(K, f, taus).to_dict()
    assert kx.check_dertau(K, f, taus, 1e-4, dl_f).to_dict() == \
        kx.check_dertau(K, f, taus, 1e-4).to_dict()
    assert_unchanged(before, K, f, dl_f)
    # the structure's own shared slopes
    _same_bits(K.ddc_mu(), ref_ddc_p(K.mu))
    log_v = K.log_v()
    _same_bits(moment_laplacian(K) - kx.jv_apply(log_v), descent_drift(K))
    _same_bits(ddc_log_v(K), ref_ddc_p(log_v))


def test_descending_ricci_matches_reference():
    for K in (kx.perturbed(kx.torus_grid(16, 33, margin=4), 0.02),
              kx.perturbed(kx.radial_grid(65, 33, margin=4), 0.01)):
        assert_forms_equal(kx.descending_ricci(K), ref_descending_ricci(K))


@pytest.mark.parametrize("target", ["pure", "mixed"])
def test_d_wedge_dc_into_matches_in_place_sum(K, fields, forms, target):
    _, h = fields
    want = _copy(forms[target])
    want += kx.d_wedge_dc(h, K)
    into = _copy(forms[target])
    before = _snapshot(K, h)
    got = kx.d_wedge_dc(h, K, into=into)
    _same_bits(got, want)
    for name in ("g11", "g12", "g22"):
        assert getattr(got, name) is getattr(into, name), name
    assert_unchanged(before, K, h)


def test_d_wedge_dc_into_refuses_a_read_only_form(K, fields):
    for cached in (K.ddc_mu(), cached_ricci_p(K)):
        before = _snapshot(cached)
        with pytest.raises(ValueError):
            kx.d_wedge_dc(fields[0], K, into=cached)
        assert_unchanged(before, cached)


def ref_moment_ricci_magnitudes(K, ric):
    grid = K.grid
    dmu = moment_laplacian(K)
    # i_V Ric: z = -g12 - i b20 and l = -g22
    z = -ric.g12
    if ric.b20 is not None:
        z = z - 1j * ric.b20
    res_z = z + grid.dz_stripped(dmu.values)
    res_l = -ric.g22 + grid.d_l(dmu.values, 1)
    return np.maximum(np.abs(res_z) * np.sqrt(grid.mixed_weight[..., None]),
                      np.abs(res_l))


@pytest.mark.parametrize("ric", ["ricci", "mixed"])
def test_moment_ricci_identity_matches_reference(K, forms, monkeypatch, ric):
    # "mixed" stands in for Ric with a form that has a (2,0) part
    form = cached_ricci_p(K) if ric == "ricci" else forms["mixed"]
    seen = []
    real = Grid.interior_norms

    def norms(grid, values):
        seen.append(values.copy())
        return real(grid, values)

    monkeypatch.setattr(curvature, "cached_ricci_p", lambda K: form)
    monkeypatch.setattr(Grid, "interior_norms", norms)
    rep = kx.check_moment_ricci_identity(K)
    want = ref_moment_ricci_magnitudes(K, form)
    assert seen[0].dtype == want.dtype and seen[0].tobytes() == want.tobytes()
    assert (rep.linf, rep.l2) == real(K.grid, want)


@pytest.mark.parametrize("kind", ["torus", "radial"])
def test_residual_kr_and_descent_write_no_input(kind):
    if kind == "torus":
        K = kx.perturbed(kx.torus_grid(16, 33, margin=4), 0.02)
    else:
        K = kx.perturbed(kx.radial_grid(65, 33, margin=4), 0.01)
    taus = kx.default_taus(K)
    before = _snapshot(K, taus)
    first = kx.residual_kr(K, taus).to_dict()
    assert_unchanged(before, K, taus)
    # now with every cache the two fill: neither touches the other's
    before = _snapshot(K, taus)
    rho = kx.descending_ricci(K)
    assert_unchanged(before, K, taus)
    before = _snapshot(K, taus, rho)
    assert kx.residual_kr(K, taus).to_dict() == first
    assert_forms_equal(kx.descending_ricci(K), rho)
    assert_unchanged(before, K, taus, rho)


# -- peak memory ------------------------------------------------------------------


def test_residual_kr_peak_memory():
    # a fixed 16x16x65 lift of the kr flow.  Measured on numpy 2.4: the peak
    # above entry, caches included, is 23.7 real fields (25.1 before
    # d(g d^c mu) was added into theta component by component, 37.9 before
    # the operators accumulated in place); the bound leaves about 15 %
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    path = kx.kr_integrate(0.01 * kx.bump(grid), kx.reference_sigma(grid),
                           0.1, dt=5e-4)
    shifted, _ = kx.concavity_shift(path)
    lift = kx.legendre_lift(shifted, n_l=65)
    taus = kx.admissible_taus(shifted, lift)
    K = kx.assemble(lift.data.sigma, lift.data.phi, lift.data.c)
    _, peak = traced_peak(kx.residual_kr, K, taus)
    assert peak < 27 * field_bytes(K.grid)


def test_descending_ricci_peak_memory(tg):
    # the verify fixture at 32x32x129.  Measured on numpy 2.4: 28.1 real
    # fields above entry, caches included (29.3 before d(g d^c mu) was added
    # into rho component by component, 35.1 before that); about 10 % margin
    K = kx.perturbed(tg, 0.02)
    _, peak = traced_peak(kx.descending_ricci, K)
    assert peak < 31 * field_bytes(K.grid)


def test_battery_pass_peak_memory(tg, monkeypatch):
    # one verify battery pass at 32x32x129, after a first pass has filled
    # the grid's own caches, so that the measure does not depend on test
    # order.  Measured on numpy 2.4, in real fields above entry: the peak is
    # 29.6 (34.7 while the descending forms stayed alive through the
    # moment-Ricci identity), and 17.6 are live when that identity starts
    # (24.6 with the descending forms, 7 fields, still held).  Each bound
    # leaves about 12 %
    fb = field_bytes(tg)
    battery_once(battery_fixture(tg))
    K = battery_fixture(tg)
    live = []
    check = verify.check_moment_ricci_identity

    def spy(K):
        live.append(tracemalloc.get_traced_memory()[0])
        return check(K)

    def battery_pass():
        live.append(tracemalloc.get_traced_memory()[0])
        return battery_once(K)

    monkeypatch.setattr(verify, "check_moment_ricci_identity", spy)
    _, peak = traced_peak(battery_pass)
    assert peak < 33 * fb
    assert live[1] - live[0] < 20 * fb
