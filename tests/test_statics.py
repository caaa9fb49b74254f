import numpy as np
import pytest

import kredux as kx
from kredux.fields import ScalarFieldM
from kredux.statics import constant_profile


def test_lambda_mean_flat_and_round(tg, rg):
    assert kx.lambda_mean(kx.flat_sigma(tg)) == 0.0
    assert abs(kx.lambda_mean(kx.fs_sigma(rg)) - 2.0) < 1e-12


def test_lambda_mean_class_invariance(tg):
    sigma = kx.flat_sigma(tg)
    u = ScalarFieldM(tg, 0.02 * np.sin(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    assert abs(kx.lambda_mean(sigma + kx.ddc_m(u)) - kx.lambda_mean(sigma)) < 1e-8


def test_lambda_mean_class_invariance_radial(rg):
    sigma = kx.fs_sigma(rg)
    u = ScalarFieldM(rg, 0.02 * np.exp(-rg.v ** 2 / 2.0))
    assert abs(kx.lambda_mean(sigma + kx.ddc_m(u)) - 2.0) < 1e-8


def test_h_canonical_cylinders(cyl, fscyl):
    taus = np.linspace(-0.5, 0.5, 7)
    h1 = kx.h_canonical(cyl, taus)
    assert np.max(np.abs(h1(taus) - taus)) < 1e-8
    h2 = kx.h_canonical(fscyl, taus)
    assert np.max(np.abs(h2(taus) - (2.0 + taus))) < 1e-8


def test_h_canonical_gauge_invariance(tg, cyl):
    taus = np.linspace(-0.4, 0.4, 5)
    u = ScalarFieldM(tg, 0.01 * np.cos(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    K2 = kx.gauge(cyl, u, 0.3, 0.0)
    h1 = kx.h_canonical(cyl, taus)
    h2 = kx.h_canonical(K2, taus)
    assert np.max(np.abs(h1(taus) - h2(taus))) < 1e-9


# -- static residuals on the closed-form fixtures ------------------------------


def test_geodesic_fixture_and_control(cyl, fscyl):
    assert kx.residual_geodesic(cyl, constant_profile(1.0)).linf < 1e-8
    assert kx.residual_geodesic(fscyl, constant_profile(1.0)).linf < 1e-8
    rep = kx.residual_geodesic(cyl, constant_profile(0.0))
    assert rep.linf > 0.1 * rep.extra["dominant"]
    # spatial constancy of the reduced combination at every level
    assert kx.residual_geodesic(cyl, constant_profile(1.0)).reduced_linf < 1e-8


def test_calabi_fixture_and_control(cyl, fscyl):
    rep = kx.residual_calabi(cyl, lambda m: m)
    assert rep.linf < 1e-8
    assert rep.reduced_linf < 1e-8
    lam = kx.lambda_mean(fscyl.sigma)
    rep2 = kx.residual_calabi(fscyl, lambda m: lam + m)
    assert rep2.linf < 1e-8
    ctrl = kx.residual_calabi(cyl, constant_profile(0.0))
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


def test_pseudo_calabi_fixture_and_control(cyl, fscyl, perturbed):
    assert kx.residual_pseudo_calabi(cyl).linf < 1e-8
    assert kx.residual_pseudo_calabi(fscyl).linf < 1e-8
    assert kx.residual_pseudo_calabi(fscyl).reduced_linf < 1e-8
    ctrl = kx.residual_pseudo_calabi(perturbed)
    assert ctrl.linf > 0.1 * min(1.0, ctrl.extra["dominant"])


def test_kr_fixture_and_control(cyl, fscyl):
    assert kx.residual_kr(cyl).linf < 1e-8
    assert kx.residual_kr(cyl).reduced_linf < 1e-8
    ctrl = kx.residual_kr(fscyl)
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


def test_v_soliton_fixture_and_controls(cyl, fscyl):
    lam = kx.lambda_mean(fscyl.sigma)
    rep = kx.residual_v_soliton(
        fscyl, lambda m: lam * m * m / 4.0)
    assert rep.linf < 1e-7
    rep2 = kx.residual_v_soliton(cyl, lambda m: 0.3 * m)
    assert rep2.linf < 1e-8
    ctrl = kx.residual_v_soliton(fscyl, constant_profile(0.0))
    assert ctrl.linf > 0.1 * ctrl.extra["dominant"]


# -- reparametrization -----------------------------------------------------------


def test_reparametrize_identity(perturbed):
    K2 = kx.reparametrize(perturbed, lambda m: m)
    assert np.max(np.abs(K2.mu.values - perturbed.mu.values)) < 1e-12
    assert np.max(np.abs(K2.phi.values - perturbed.phi.values)) < 1e-13


def test_reparametrize_shift(cyl):
    K2 = kx.reparametrize(cyl, lambda m: m + 0.25)
    assert np.max(np.abs(K2.mu.values - (cyl.mu.values + 0.25))) < 1e-11
    psi = K2.phi.values - cyl.phi.values
    expect = -0.125 * cyl.grid.l + 0.125 * cyl.grid.l_max
    assert np.max(np.abs(psi - expect)) < 1e-11


def test_reparametrize_exponential_map(cyl, perturbed):
    a, b, lam = 0.1, 0.1, 0.5
    fmap = lambda m: (a + b * np.exp(lam * m)) / lam  # noqa: E731
    K2 = kx.reparametrize(cyl, fmap)
    assert np.max(np.abs(K2.mu.values - fmap(cyl.mu.values))) < 1e-9
    K3 = kx.reparametrize(perturbed, fmap)
    assert np.max(np.abs(K3.mu.values - fmap(perturbed.mu.values))) < 1e-8


def test_reparametrize_respects_time_map(cyl):
    a, b, lam = 0.0, 2.0, 2.0
    assert abs(kx.kr_time_map(a, b, lam, 1.0) - np.exp(2.0)) < 1e-14
    assert kx.kr_time_map(a, b, lam, 0.0) == (a + b) / lam
    with pytest.raises(ValueError):
        kx.kr_time_map(a, b, 0.0, 1.0)
    fmap = lambda m: kx.kr_time_map(0.1, 0.1, 0.5, m)  # noqa: E731
    K2 = kx.reparametrize(cyl, fmap)
    assert np.max(np.abs(K2.mu.values - fmap(cyl.mu.values))) < 1e-9


def test_h_canonical_reparametrization_covariance(cyl):
    # new canonical profile is the old one through the inverse level map
    k = 0.2
    K2 = kx.reparametrize(cyl, lambda m: m + k)
    taus = np.linspace(-0.3, 0.3, 5)
    h2 = kx.h_canonical(K2, taus + k)
    h1 = kx.h_canonical(cyl, taus)
    assert np.max(np.abs(h2(taus + k) - h1(taus))) < 1e-8
