from dataclasses import replace

import numpy as np
import pytest

import kredux as kx
from kredux.errors import Degenerate, NotPositive, OutOfRange
from kredux.fields import Form11M, Form11P, ScalarFieldM, ScalarFieldP


def p_field(grid, vals):
    return ScalarFieldP(grid, np.broadcast_to(vals, grid.p_shape).copy())


# -- level sets ---------------------------------------------------------------


def test_level_set_cylinder(cyl):
    level = kx.level_set(cyl, 0.7)
    assert np.max(np.abs(level.l_tau.values + 0.7)) < 1e-12
    assert level.max_residual < 1e-12


def test_level_set_quotient_full_and_partial():
    grid = kx.golden_grid(n_u=129, n_l=129)
    mu = kx.singquot_moment(grid)
    full = kx.level_set(mu, -2.0)
    assert full.complete
    # at the u -> 0 chart end, mu(0, s) = -(1+s): the root of -(1+s) = -2 is s=1
    assert abs(np.exp(full.l_tau.values[0]) - 1.0) < 5e-3
    with pytest.raises(OutOfRange) as err:
        kx.level_set(mu, -0.5)
    assert err.value.missing is not None
    part = kx.level_set(mu, -0.5, raise_on_miss=False)
    assert part.missing.any() and not part.missing.all()


def test_complete_level_has_an_all_false_missing_mask(perturbed):
    level = kx.level_set(perturbed, 0.2)
    assert level.complete
    assert level.missing.dtype == bool
    assert level.missing.shape == perturbed.grid.spatial_shape
    assert not level.missing.any()


def test_level_set_out_of_range_everywhere(cyl):
    with pytest.raises(OutOfRange):
        kx.level_set(cyl, 99.0)


# -- scalar reduction ---------------------------------------------------------


def test_reduce_moment_map_is_tau(perturbed):
    level = kx.level_set(perturbed, 0.4)
    red = kx.reduce_scalar(perturbed.mu, level)
    assert np.max(np.abs(red.values - 0.4)) < 1e-12


def test_reduce_log_fiber(cyl):
    level = kx.level_set(cyl, 0.3)
    f = p_field(cyl.grid, cyl.grid.l)
    red = kx.reduce_scalar(f, level)
    assert np.max(np.abs(red.values + 0.3)) < 1e-12


def test_reduce_base_function_unchanged(perturbed):
    grid = perturbed.grid
    vals = np.cos(2 * np.pi * grid.x1)[:, None, None] * np.ones(grid.p_shape)
    f = ScalarFieldP(grid, vals)
    red = kx.reduce_scalar(f, kx.level_set(perturbed, 0.2))
    assert np.max(np.abs(red.values - vals[:, :, 0])) < 1e-13


def test_reduction_is_algebra_map(perturbed):
    # exact for fields the shared interpolant represents exactly
    grid = perturbed.grid
    rng = np.random.default_rng(5)
    a = kx.fixtures.random_resolved_m(grid, rng).values[..., None]
    b = kx.fixtures.random_resolved_m(grid, rng).values[..., None]
    f = ScalarFieldP(grid, a + b * grid.l)
    h = ScalarFieldP(grid, b - a * grid.l)
    level = kx.level_set(perturbed, 0.35)
    fg = kx.reduce_scalar(f * h, level).values
    sep = kx.reduce_scalar(f, level).values * kx.reduce_scalar(h, level).values
    assert np.max(np.abs(fg - sep)) < 1e-12
    add = kx.reduce_scalar(f + h, level).values
    assert np.max(np.abs(add - (kx.reduce_scalar(f, level).values
                                + kx.reduce_scalar(h, level).values))) < 1e-12


# -- reduced potentials --------------------------------------------------------


def test_reduced_potential_cylinder(cyl):
    for tau in (-0.6, 0.1, 0.8):
        red = kx.reduced_potential(cyl, tau)
        assert np.max(np.abs(red.psi_tau.values + tau * tau / 4.0)) < 1e-9
        assert np.max(np.abs(red.omega_tau.h - cyl.sigma.h)) < 1e-9
        assert red.max_root_residual < 1e-12


def test_reduced_potential_fs(fscyl):
    red = kx.reduced_potential(fscyl, 0.3)
    assert np.max(np.abs(red.omega_tau.h - fscyl.sigma.h)) < 1e-9
    dev = red.psi_tau.values - red.psi_tau.values.flat[0]
    assert np.max(np.abs(dev)) < 1e-9


def test_reduction_gauge_invariance(tg, cyl):
    u = ScalarFieldM(tg, 0.01 * np.cos(2 * np.pi * tg.x2)[None, :]
                     * np.ones((tg.n_spatial, 1)))
    K2 = kx.gauge(cyl, u, 0.7, 0.0)
    for tau in (-0.4, 0.5):
        r1 = kx.reduced_potential(cyl, tau)
        r2 = kx.reduced_potential(K2, tau)
        assert np.max(np.abs(r1.omega_tau.h - r2.omega_tau.h)) < 1e-9
        shift = r2.psi_tau.values - r1.psi_tau.values + u.values
        assert np.max(np.abs(shift - shift.flat[0])) < 1e-9


# -- derivative-in-tau identity -------------------------------------------------


def test_dertau_log_fiber(cyl):
    rep = kx.check_dertau(cyl, p_field(cyl.grid, cyl.grid.l), 0.2)
    assert rep.linf < 1e-10


def test_dertau_moment_map(perturbed):
    grid = perturbed.grid
    up = kx.reduce_scalar(perturbed.mu, kx.level_set(perturbed, 0.3 + 1e-4))
    dn = kx.reduce_scalar(perturbed.mu, kx.level_set(perturbed, 0.3 - 1e-4))
    lhs = (up.values - dn.values) / 2e-4
    assert np.max(np.abs(lhs - 1.0)) < 1e-9
    rep = kx.check_dertau(perturbed, perturbed.mu, 0.3)
    assert rep.linf < 1e-9


def test_dertau_separable(cyl):
    grid = cyl.grid
    vals = np.broadcast_to(np.sin(2 * np.pi * grid.x1)[:, None, None]
                           * (grid.l ** 2), grid.p_shape).copy()
    rep = kx.check_dertau(cyl, ScalarFieldP(grid, vals), 0.25, dtau=1e-4)
    assert rep.linf < 1e-6


def test_dertau_second_order_in_step(cyl):
    grid = cyl.grid
    vals = np.broadcast_to(np.sin(2 * np.pi * grid.x1)[:, None, None]
                           * np.cosh(grid.l), grid.p_shape).copy()
    f = ScalarFieldP(grid, vals)
    errs = [kx.check_dertau(cyl, f, 0.2, dtau=d).linf for d in (2e-2, 1e-2)]
    assert np.log2(errs[0] / errs[1]) > 1.8


# -- reduced differential identity ----------------------------------------------


def test_dcred_trivial_cylinder(cyl):
    grid = cyl.grid
    vals = np.cos(2 * np.pi * grid.x1)[:, None, None] * np.ones(grid.p_shape)
    rep = kx.check_dcred(cyl, ScalarFieldP(grid, vals), 0.1)
    assert rep.linf < 1e-10


def test_dcred_moment_map(perturbed):
    rep = kx.check_dcred(perturbed, perturbed.mu, 0.3)
    assert rep.linf < 1e-9


def test_dcred_quotient_lift():
    grid = kx.golden_grid(n_u=257, n_l=129)
    mu = kx.singquot_moment(grid)
    K = kx.assemble(kx.reference_sigma(grid), kx.potential_from_moment(mu, 0.0), 0.0,
                    require_positive=False)
    t = np.tanh(grid.v / 6.0)[:, None]
    f = ScalarFieldP(grid, np.sin(np.pi * t) * np.cos(grid.l)
                     + 0.3 * np.cos(np.pi * t) * grid.l)
    rep = kx.check_dcred(K, f, -1.5)
    assert rep.linf < 1e-6


def test_degenerate_reduced_form_raises():
    # the golden quotient's potential, assembled without its positivity check:
    # omega_tau at tau = -1.5 has a component of about -16.8
    grid = kx.golden_grid(n_u=129, n_l=65)
    K = kx.assemble(kx.reference_sigma(grid),
                    kx.potential_from_moment(kx.singquot_moment(grid), 0.0),
                    0.0, require_positive=False)
    with pytest.raises(NotPositive) as err:
        kx.reduced_potential(K, -1.5)
    assert err.value.eigenvalue < -10.0


def test_dcred_refinement_quotient():
    # simultaneous refinement of both non-spectral axes
    errs = []
    for n_u, n_l in ((129, 65), (257, 129)):
        grid = kx.radial_grid(n_u=n_u, n_l=n_l, l_min=-3.0, l_max=1.0)
        mu = kx.singquot_moment(grid)
        K = kx.assemble(kx.reference_sigma(grid), kx.potential_from_moment(mu, 0.0),
                        0.0, require_positive=False)
        t = np.tanh(grid.v / 6.0)[:, None]
        f = ScalarFieldP(grid, np.sin(np.pi * t) * np.cos(grid.l)
                         + 0.3 * np.cos(np.pi * t) * grid.l)
        errs.append(kx.check_dcred(K, f, -1.5).linf)
    assert errs[1] < 1e-6
    assert np.log2(errs[0] / errs[1]) > 2.0


# -- volume-ratio identity --------------------------------------------------------


def test_ma_zero(perturbed):
    f = ScalarFieldP(perturbed.grid, np.zeros(perturbed.grid.p_shape))
    rep = kx.ma_reduced(perturbed, f, 0.2)
    assert rep.linf < 1e-12


def test_ma_function_of_moment(perturbed):
    rep = kx.ma_reduced(perturbed, perturbed.mu * perturbed.mu, 0.25)
    assert rep.linf < 1e-6


def test_ma_convergence(tg, cyl):
    grid = cyl.grid
    vals = 0.05 * np.cos(2 * np.pi * grid.x2)[None, :, None] * grid.l
    f = ScalarFieldP(grid, np.broadcast_to(vals, grid.p_shape).copy())
    rep = kx.ma_reduced(cyl, f, 0.3)
    assert rep.linf < 1e-5
    coarse_grid = kx.torus_grid(n=32, n_l=65)
    K2 = kx.cylinder(coarse_grid)
    vals2 = 0.05 * np.cos(2 * np.pi * coarse_grid.x2)[None, :, None] * coarse_grid.l
    f2 = ScalarFieldP(coarse_grid, np.broadcast_to(vals2, coarse_grid.p_shape).copy())
    rep2 = kx.ma_reduced(K2, f2, 0.3)
    assert np.log2(rep2.linf / rep.linf) > 2.0 or rep.linf < 1e-11


def test_ma_degeneracy_is_relative_to_scale():
    # rescaling sigma, phi and c by s scales omega by s and its volume
    # density by s^2: below 1e-14 everywhere at s = 1e-8, yet no less
    # positive relative to its own size
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    K = kx.perturbed(grid, 0.02)
    s = 1e-8
    Ks = kx.assemble(Form11M(grid, s * K.sigma.h),
                     ScalarFieldP(grid, s * K.phi.values), s * K.c)
    assert Ks.certificate.positive
    assert np.max(kx.wedge_square(Ks.omega)) < 1e-14
    f = kx.fixtures.random_resolved_p(grid, np.random.default_rng(3),
                                      amplitude=0.3)
    rep = kx.ma_reduced(Ks, s * f, s * 0.1)
    assert [t for t, _ in rep.reduced_by_tau] == [s * 0.1]
    assert np.isfinite(rep.linf)


@pytest.mark.parametrize("s", [1e-8, 1e8])
def test_reductions_are_scale_free(s):
    # rescaling sigma, phi and c by s rescales mu and leaves the levels and
    # the Monge-Ampere ratios alone; a residual tolerance in units of mu
    # once left ma_reduced 3.5 to 24 times off at s = 1e-8
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    K = kx.perturbed(grid, 0.02)
    Ks = kx.assemble(Form11M(grid, s * K.sigma.h),
                     ScalarFieldP(grid, s * K.phi.values), s * K.c)
    f = p_field(grid, 0.3 * np.cos(2 * np.pi * grid.x1)[:, None, None]
                * np.exp(-grid.l ** 2))
    taus = np.array([0.1, -0.5])
    for tau in taus:
        level, level_s = kx.level_set(K, tau), kx.level_set(Ks, s * tau)
        assert level_s.iterations == level.iterations
        # measured at most 4.4e-16
        assert np.max(np.abs(level_s.l_tau.values - level.l_tau.values)) <= 1e-14
    want = kx.ma_reduced(K, f, taus).reduced_by_tau
    got = kx.ma_reduced(Ks, s * f, s * taus).reduced_by_tau
    for (_, r), (_, r_s) in zip(want, got):
        # measured at most 6.9e-10 relative: rounding of s * phi, through
        # four derivatives
        assert abs(r_s - r) <= 5e-9 * r


def test_ma_vanishing_density_is_degenerate(perturbed):
    # one node where omega's volume density is exactly zero
    om = perturbed.omega
    g11, g12 = om.g11.copy(), om.g12.copy()
    g11[3, 4, 60] = g12[3, 4, 60] = 0.0
    K = replace(perturbed, omega=Form11P(om.grid, g11, g12, om.g22))
    with pytest.raises(Degenerate):
        kx.ma_reduced(K, perturbed.mu * perturbed.mu, 0.25)


# -- reduced Laplacian --------------------------------------------------------------


def test_laplace_reduced_base_function(cyl):
    grid = cyl.grid
    vals = np.cos(2 * np.pi * grid.x1)[:, None, None] * np.ones(grid.p_shape)
    rep = kx.laplace_reduced(cyl, ScalarFieldP(grid, vals), 0.2)
    assert rep.linf < 1e-10


def test_laplace_reduced_exponential_fiber(cyl):
    grid = cyl.grid
    f = ScalarFieldP(grid, np.broadcast_to(np.exp(grid.l), grid.p_shape).copy())
    rep = kx.laplace_reduced(cyl, f, 0.15)
    assert rep.linf < 1e-7


def test_laplace_reduced_random(perturbed):
    rng = np.random.default_rng(9)
    f = kx.fixtures.random_resolved_p(perturbed.grid, rng)
    rep = kx.laplace_reduced(perturbed, f, 0.3)
    assert rep.linf < 1e-5


# -- form reduction ------------------------------------------------------------------


def test_reduce_form_omega_matches_reduced_potential(perturbed):
    level = kx.level_set(perturbed, 0.3)
    red = kx.reduced_potential(perturbed, 0.3)
    form, angular = kx.reduce_form(perturbed.omega, level)
    assert perturbed.grid.interior_norms(form.h - red.omega_tau.h)[0] < 1e-8
    assert angular < 1e-8


def test_reduce_complex_array(cyl):
    level = kx.level_set(cyl, 0.4)
    grid = cyl.grid
    arr = (grid.l + 1j * grid.l ** 2) * np.ones(grid.p_shape)
    out = level.weights.apply(arr)
    assert out.shape == grid.spatial_shape
    assert np.max(np.abs(out - (-0.4 + 1j * 0.16))) < 1e-11
    # the two parts reduce exactly as real arrays do
    assert np.array_equal(out.real, level.weights.apply(arr.real))
    assert np.array_equal(out.imag, level.weights.apply(arr.imag))
