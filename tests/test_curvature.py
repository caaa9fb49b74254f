import numpy as np

import kredux as kx
from kredux.curvature import (laplacian_m, laplacian_p, ricci_m, ricci_p,
                              scal_m, scal_p)
from kredux.fields import Form11M, ScalarFieldM, ScalarFieldP, interior_norms
from kredux.fixtures import cylinder_potential


def test_ricci_flat(tg):
    assert np.max(np.abs(ricci_m(kx.reference_sigma(tg)).h)) == 0.0


def test_ricci_round_metric(rg):
    sigma = kx.reference_sigma(rg)
    ric = ricci_m(sigma)
    assert np.max(np.abs(ric.h - 2.0 * sigma.h)) < 1e-12


def test_ricci_perturbed_against_plain_differences(tg):
    # independent oracle: centered 2nd differences of log H at two resolutions
    def oracle_gap(n):
        grid = kx.torus_grid(n=n, n_l=33)
        u = 0.01 * np.sin(2 * np.pi * grid.x1)[:, None] * np.ones((1, n))
        omega = kx.reference_sigma(grid) + kx.ddc_m(ScalarFieldM(grid, u))
        ours = ricci_m(omega).h
        logh = np.log(omega.h)
        h = 1.0 / n
        lap = sum((np.roll(logh, s, axis=ax) - logh) / h ** 2
                  for ax in (0, 1) for s in (1, -1))
        fd = -0.5 * 0.5 * lap  # -(1/2) * H(dd^c log H) with 2nd-order stencil
        return np.max(np.abs(ours - fd))

    g1, g2 = oracle_gap(16), oracle_gap(32)
    assert np.log2(g1 / g2) > 1.8


def test_scal_flat_and_round(tg, rg):
    assert np.max(np.abs(scal_m(kx.reference_sigma(tg)).values)) == 0.0
    s = scal_m(kx.reference_sigma(rg))
    assert abs(np.mean(s.values) - 2.0) < 1e-12
    assert np.max(np.abs(s.values - np.mean(s.values))) < 1e-8


def test_scal_mean_zero_on_torus(tg):
    u = ScalarFieldM(tg, 0.03 * np.cos(2 * np.pi * tg.x2)[None, :]
                     * np.ones((tg.n_spatial, 1)))
    omega = kx.reference_sigma(tg) + kx.ddc_m(u)
    total = kx.integrate_m(scal_m(omega), omega)
    assert abs(total) < 1e-10


def test_scal_class_integral_radial():
    # total curvature of the round sphere in this chart, and its invariance
    # under a compactly supported move of the metric
    grid = kx.radial_grid(n_u=257, n_l=33)
    sigma = kx.reference_sigma(grid)
    base = kx.integrate_m(scal_m(sigma), sigma)
    assert abs(base - 2.0 * np.pi) < 1e-2  # chart truncation at |v| <= l_u
    u = ScalarFieldM(grid, 0.02 * np.exp(-grid.v ** 2 / 2.0))
    omega = sigma + kx.ddc_m(u)
    moved = kx.integrate_m(scal_m(omega), omega)
    assert abs(moved - base) < 1e-8


def test_laplacian_m_examples(tg):
    sigma = kx.reference_sigma(tg)
    c = ScalarFieldM(tg, np.ones(tg.spatial_shape))
    assert np.max(np.abs(laplacian_m(c, sigma).values)) == 0.0
    f = ScalarFieldM(tg, np.sin(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    expect = -np.pi ** 2 * f.values
    assert np.max(np.abs(laplacian_m(f, sigma).values - expect)) < 1e-10
    rng = np.random.default_rng(2)
    h = kx.fixtures.random_resolved_m(tg, rng)
    assert abs(kx.integrate_m(laplacian_m(h, sigma), sigma)) < 1e-10


def test_laplacian_p_examples(cyl):
    grid = cyl.grid
    ell = ScalarFieldP(grid, np.broadcast_to(grid.l, grid.p_shape).copy())
    assert np.max(np.abs(laplacian_p(ell, cyl).values)) < 1e-10
    s = ScalarFieldP(grid, np.broadcast_to(np.exp(grid.l), grid.p_shape).copy())
    gap = np.abs(laplacian_p(s, cyl).values - s.values)
    assert interior_norms(gap, grid.interior_p())[0] < 1e-7
    assert np.max(np.abs(laplacian_p(cyl.mu, cyl).values)) < 1e-8


def test_ricci_p_products(cyl, fscyl):
    m = cyl.grid.interior_p()
    assert interior_norms(ricci_p(cyl).max_magnitude(), m)[0] < 1e-8
    ric = ricci_p(fscyl)
    expect = 2.0 * fscyl.sigma.h[..., None]
    m = fscyl.grid.interior_p()
    assert interior_norms(ric.g11 - expect, m)[0] < 1e-8
    assert interior_norms(ric.g22, m)[0] < 1e-8


def test_scal_p_products(cyl, fscyl):
    m = cyl.grid.interior_p()
    assert interior_norms(scal_p(cyl).values, m)[0] < 1e-8
    m = fscyl.grid.interior_p()
    assert interior_norms(scal_p(fscyl).values - 2.0, m)[0] < 1e-8


def test_descent_products(cyl, fscyl):
    # on products everything descends to the base curvature exactly
    for K, ric_expect, scal_expect in ((cyl, 0.0, 0.0), (fscyl, None, 2.0)):
        rho = kx.descending_ricci(K)
        big_r = kx.descending_scalar(K)
        mask = K.grid.interior_m()
        for tau in (-0.3, 0.4):
            level = kx.level_set(K, tau)
            red = kx.reduced_potential(K, tau)
            rho_tau, _ = kx.reduce_form(rho, level)
            gap = np.abs(rho_tau.h - ricci_m(red.omega_tau).h)
            assert np.max(gap[mask]) < 1e-6
            gap2 = np.abs(kx.reduce_scalar(big_r, level).values
                          - scal_m(red.omega_tau).values)
            assert np.max(gap2[mask]) < 1e-6


def test_descent_perturbed_converges():
    # amplitudes are capped so the metric stays spectrally resolved; at the
    # nominal 0.05 the component dips to ~0.013 and no grid this size can
    # represent log det
    gaps = []
    for n_l in (65, 129):
        grid = kx.torus_grid(n=32, n_l=n_l)
        l = grid.l
        narrow = 0.02 * kx.bump(grid)[..., None] * np.exp(-l * l / 0.8)
        K = kx.assemble(kx.reference_sigma(grid), cylinder_potential(grid)
                        + ScalarFieldP(grid, narrow), 0.0)
        rho = kx.descending_ricci(K)
        big_r = kx.descending_scalar(K)
        level = kx.level_set(K, 0.3)
        red = kx.reduced_potential(K, 0.3)
        rho_tau, _ = kx.reduce_form(rho, level)
        mask = grid.interior_m()
        g1 = np.max(np.abs(rho_tau.h - ricci_m(red.omega_tau).h)[mask])
        g2 = np.max(np.abs(kx.reduce_scalar(big_r, level).values
                           - scal_m(red.omega_tau).values)[mask])
        gaps.append(max(g1, g2))
    assert gaps[1] < 1e-5
    assert np.log2(gaps[0] / gaps[1]) > 2.0


def test_trace_compatibility(perturbed):
    red = kx.reduced_potential(perturbed, 0.25)
    ric = ricci_m(red.omega_tau)
    s = scal_m(red.omega_tau)
    assert np.max(np.abs(s.values * red.omega_tau.h - ric.h)) < 1e-12


def test_scal_integral_tau_invariance(perturbed):
    vals = []
    for tau in (-0.4, 0.0, 0.45):
        red = kx.reduced_potential(perturbed, tau)
        vals.append(kx.integrate_m(scal_m(red.omega_tau), red.omega_tau))
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


def test_moment_ricci_identity(cyl, fscyl, perturbed):
    assert kx.check_moment_ricci_identity(cyl).linf < 1e-10
    assert kx.check_moment_ricci_identity(fscyl).linf < 1e-8
    rep = kx.check_moment_ricci_identity(perturbed)
    assert rep.linf < 1e-5
    coarse = kx.perturbed(kx.torus_grid(n=32, n_l=65), 0.02)
    rep2 = kx.check_moment_ricci_identity(coarse)
    assert np.log2(rep2.linf / rep.linf) > 2.0
