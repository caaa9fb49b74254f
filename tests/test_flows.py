import numpy as np
import pytest

import kredux as kx
from kredux.errors import ClassNotFixed, PositivityLost, StepUnstable
from kredux.flows import FlowPath, time_derivative


def test_flat_torus_stationary_under_every_flow(tg):
    sigma = kx.flat_sigma(tg)
    zero = np.zeros(tg.spatial_shape)
    for run in (lambda: kx.calabi_integrate(zero, sigma, 0.01, dt=1e-4),
                lambda: kx.pseudo_calabi_integrate(zero, sigma, 0.01, dt=1e-4),
                lambda: kx.kr_integrate(zero, sigma, 0.01, dt=1e-4)):
        path = run()
        assert np.max(np.abs(path.psis[-1])) < 1e-7


def test_round_metric_stationary(rg):
    sigma = kx.fs_sigma(rg)
    zero = np.zeros(rg.spatial_shape)
    lam = kx.lambda_mean(sigma)
    p1 = kx.kr_integrate(zero, sigma, 0.01, dt=1e-5, normalized=True, lam=lam)
    assert np.max(np.abs(p1.psis[-1])) < 1e-7
    p2 = kx.calabi_integrate(zero, sigma, 0.01, dt=1e-4)
    assert np.max(np.abs(p2.psis[-1])) < 1e-7
    p3 = kx.pseudo_calabi_integrate(zero, sigma, 0.01, dt=1e-4)
    assert np.max(np.abs(p3.psis[-1])) < 1e-7


def test_calabi_energy_monotone(calabi_path):
    sigma = calabi_path.sigma
    es = [kx.calabi_energy(sigma, calabi_path.psis[k])
          for k in range(calabi_path.n_samples)]
    assert all(es[k + 1] <= es[k] + 1e-12 * (1 + es[k]) for k in range(len(es) - 1))
    assert es[-1] < es[0]


def test_calabi_scal_sup_decreases(calabi_path):
    from kredux.curvature import scal_m

    sups = [np.max(np.abs(scal_m(calabi_path.metric_at(k)).values))
            for k in range(0, calabi_path.n_samples, 40)]
    assert all(sups[k + 1] <= sups[k] + 1e-12 for k in range(len(sups) - 1))


def test_volume_fixed_along_paths(calabi_path, kr_path, pc_path):
    for path in (calabi_path, kr_path, pc_path):
        grid = path.grid
        ones = np.ones(grid.spatial_shape)
        vols = [kx.integrate_m(ones, path.metric_at(k))
                for k in range(0, path.n_samples, max(path.n_samples // 8, 1))]
        assert max(abs(v - vols[0]) for v in vols) < 1e-8


def test_kr_ricci_sup_decreases(kr_path):
    from kredux.curvature import ricci_m

    sups = [np.max(np.abs(ricci_m(kr_path.metric_at(k)).h))
            for k in range(0, kr_path.n_samples, 10)]
    assert all(sups[k + 1] <= sups[k] + 1e-12 for k in range(len(sups) - 1))


def test_kr_unnormalized_rejected_off_torus(rg):
    with pytest.raises(ClassNotFixed):
        kx.kr_integrate(np.zeros(rg.spatial_shape), kx.fs_sigma(rg), 0.01,
                        dt=1e-4)


def test_positivity_loss_detected(tg):
    sigma = kx.flat_sigma(tg)
    bad = 0.2 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    with pytest.raises(PositivityLost):
        kx.calabi_integrate(bad, sigma, 0.01, dt=1e-4)


def test_calabi_flow_sees_background_curvature(tg):
    # the same metric written as (flat + dd^c u, psi) or (flat, u + psi): the
    # flow is gauge equivariant, so the background's own curvature must drive it
    flat = kx.flat_sigma(tg)
    u = 0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    moved = kx.calabi_integrate(np.zeros(tg.spatial_shape),
                                flat + kx.ddc_m(u, tg), 1e-5, dt=1e-7)
    ref = kx.calabi_integrate(u, flat, 1e-5, dt=1e-7)
    np.testing.assert_array_equal(moved.ts, ref.ts)
    assert np.max(np.abs(moved.psis[-1])) > 1e-6
    assert np.max(np.abs(moved.psis - (ref.psis - u))) <= 1e-12


def test_kr_blowup_is_step_unstable(tg):
    u = 0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    with pytest.raises(StepUnstable):
        kx.kr_integrate(u, kx.flat_sigma(tg), 0.5, dt=0.01)


def test_time_derivative_exact_on_quartics():
    # the 4th-order stencils, one-sided rows included, are exact on quartics
    ts = np.linspace(0.3, 1.1, 9)
    p = np.polynomial.Polynomial([0.7, -1.3, 0.4, 2.1, -0.8])
    samples = np.outer(p(ts), [1.0, -2.0])
    for order in (1, 2):
        exact = np.outer(p.deriv(order)(ts), [1.0, -2.0])
        assert np.max(np.abs(time_derivative(ts, samples, order) - exact)) < 1e-10
    with pytest.raises(ValueError):
        time_derivative(ts ** 2, samples, 1)


def test_flow_path_validation(tg):
    sigma = kx.flat_sigma(tg)
    ts = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        FlowPath(tg, sigma, "x", ts[::-1].copy(),
                 np.zeros((5,) + tg.spatial_shape))
    with pytest.raises(PositivityLost):
        psis = np.zeros((5,) + tg.spatial_shape)
        psis[3] = 0.2 * np.cos(2 * np.pi * tg.x1)[:, None]
        FlowPath(tg, sigma, "x", ts, psis)


# -- geodesic residual of sampled paths --------------------------------------


def test_geodesic_residual_spatially_constant_path(tg):
    sigma = kx.flat_sigma(tg)
    ts = np.linspace(0, 1, 21)
    psis = np.array([(0.3 + 0.2 * t) * np.ones(tg.spatial_shape) for t in ts])
    rep = kx.geodesic_residual_path(FlowPath(tg, sigma, "line", ts, psis))
    assert rep.linf < 1e-12
    assert max(abs(m) for m in rep.extra["residual_mean_by_t"]) < 1e-10


def test_geodesic_residual_reduction_family(tg, cyl):
    # psi_tau = -tau^2/4 on the flat base: residual is the constant -1/2
    ts = np.linspace(0.2, 0.8, 25)
    psis = np.array([-t * t / 4.0 * np.ones(tg.spatial_shape) for t in ts])
    rep = kx.geodesic_residual_path(FlowPath(tg, cyl.sigma, "fam", ts, psis))
    assert rep.linf < 1e-10  # spatially constant residual
    means = rep.extra["residual_mean_by_t"]
    assert max(abs(m + 0.5) for m in means) < 1e-10


def toric_geodesic(grid, amplitude, ts):
    """Samples of the exact geodesic from psi_0 = 0 to psi_1 = A cos(2 pi x1).

    The Legendre transform of x1^2/2 + psi/2 is linear in t along a geodesic
    of toric data.  Per node, s solves s - (1 - t) pi A sin(2 pi s) = x1 by
    Newton; then y = s - pi A sin(2 pi s) is the dual point and
    F = x1 y - (1 - t) y^2/2 - t (s y - F_1(s)) with
    F_1(s) = s^2/2 + (A/2) cos(2 pi s) gives psi_t = 2 F - x1^2.
    """
    x, a = grid.x1, amplitude
    psis = []
    for t in ts:
        s = x.copy()
        for _ in range(50):
            r = s - (1 - t) * np.pi * a * np.sin(2 * np.pi * s) - x
            if np.max(np.abs(r)) < 1e-15:
                break
            s = s - r / (1 - (1 - t) * 2 * np.pi ** 2 * a * np.cos(2 * np.pi * s))
        else:
            raise AssertionError("Newton solve for the dual point did not converge")
        y = s - np.pi * a * np.sin(2 * np.pi * s)
        f1 = s * s / 2 + a / 2 * np.cos(2 * np.pi * s)
        f = x * y - (1 - t) * y * y / 2 - t * (s * y - f1)
        psis.append(np.broadcast_to((2 * f - x * x)[:, None], grid.spatial_shape))
    return np.array(psis)


def test_geodesic_residual_exact_toric_geodesic(tg):
    ts = np.linspace(0.0, 1.0, 81)
    psis = toric_geodesic(tg, 0.02, ts)
    assert np.max(np.abs(psis[0])) < 1e-15
    assert np.max(np.abs(psis[-1] - 0.02 * np.cos(2 * np.pi * tg.x1)[:, None])) < 1e-15
    path = FlowPath(tg, kx.flat_sigma(tg), "geodesic", ts, psis)
    assert kx.geodesic_residual_path(path).linf < 1e-7


def test_geodesic_residual_negative_control(tg):
    sigma = kx.flat_sigma(tg)
    ts = np.linspace(0, 0.3, 21)
    u = 0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    psis = np.array([t * t * u for t in ts])
    rep = kx.geodesic_residual_path(FlowPath(tg, sigma, "bad", ts, psis))
    assert rep.linf > 1e-3  # spatially non-constant residual


def test_geodesic_residual_needs_uniform_samples(tg):
    sigma = kx.flat_sigma(tg)
    ts = np.array([0.0, 0.1, 0.3, 0.6, 0.7, 0.9])
    psis = np.zeros((6,) + tg.spatial_shape)
    with pytest.raises(ValueError):
        kx.geodesic_residual_path(FlowPath(tg, sigma, "x", ts, psis))


def test_stable_dt_scales(tg, rg):
    assert kx.stable_dt(kx.flat_sigma(tg), "calabi") < 2e-7
    assert kx.stable_dt(kx.flat_sigma(tg), "kr") > 1e-4
    assert kx.stable_dt(kx.fs_sigma(rg), "kr") < 1e-5
