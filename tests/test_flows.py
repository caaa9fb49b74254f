import numpy as np
import pytest

import kredux as kx
from kredux import flows
from kredux.errors import ClassNotFixed, PositivityLost, StepUnstable
from kredux.flows import FlowPath, time_spline


def test_flat_torus_stationary_under_every_flow(tg):
    sigma = kx.reference_sigma(tg)
    zero = np.zeros(tg.spatial_shape)
    for run in (lambda: kx.calabi_integrate(zero, sigma, 0.01, dt=1e-4),
                lambda: kx.pseudo_calabi_integrate(zero, sigma, 0.01, dt=1e-4),
                lambda: kx.kr_integrate(zero, sigma, 0.01, dt=1e-4)):
        path = run()
        assert np.max(np.abs(path.psis[-1])) < 1e-7


def test_round_metric_stationary(rg):
    sigma = kx.reference_sigma(rg)
    zero = np.zeros(rg.spatial_shape)
    p1 = kx.kr_integrate(zero, sigma, 0.01, dt=1e-5, normalized=True)
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


def test_monitored_energy_is_each_samples_energy(tg, monkeypatch):
    # the monitor evaluates every sample, sample 0 included, so C6 checks
    # the energies the monitor enforced; sample 0 used to be psi0 itself,
    # whose energy differs in the last bits from that of psi0 on the modes
    # and back, the state the integrator stepped from
    seen = []
    real = flows._calabi_energy

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(flows, "_calabi_energy", recording)
    sigma = kx.reference_sigma(tg)
    path = kx.calabi_integrate(3e-4 * kx.bump(tg), sigma, 0.004)
    monitored = list(seen)
    assert len(monitored) == path.n_samples == 33
    for k in range(path.n_samples):
        assert kx.calabi_energy(sigma, path.psis[k]) == monitored[k], k


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
        kx.kr_integrate(np.zeros(rg.spatial_shape), kx.reference_sigma(rg), 0.01,
                        dt=1e-4)


def test_positivity_loss_detected(tg):
    sigma = kx.reference_sigma(tg)
    bad = 0.2 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    with pytest.raises(PositivityLost):
        kx.calabi_integrate(bad, sigma, 0.01, dt=1e-4)


def test_calabi_flow_sees_background_curvature(tg):
    # the same metric written as (flat + dd^c u, psi) or (flat, u + psi): the
    # flow is gauge equivariant, so the background's own curvature must drive it
    flat = kx.reference_sigma(tg)
    u = 0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    moved = kx.calabi_integrate(np.zeros(tg.spatial_shape),
                                flat + kx.ddc_m(u, tg), 1e-5, dt=1e-7)
    ref = kx.calabi_integrate(u, flat, 1e-5, dt=1e-7)
    np.testing.assert_array_equal(moved.ts, ref.ts)
    assert np.max(np.abs(moved.psis[-1])) > 1e-6
    assert np.max(np.abs(moved.psis - (ref.psis - u))) <= 1e-12


def _stiff_background_and_potential():
    """flat + dd^c(0.02 cos 2 pi x1) on a 16 x 16 torus, where the frozen
    symbol understates the stiffness, and a potential with content in the
    stiffest modes."""
    grid = kx.torus_grid(16, 9)
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    u = 0.02 * np.cos(2 * np.pi * x1) * np.ones((1, grid.n_spatial))
    psi0 = (1e-4 * np.cos(2 * np.pi * x2) * np.ones((grid.n_spatial, 1))
            + 1e-6 * np.cos(14 * np.pi * x1) * np.cos(16 * np.pi * x2))
    return kx.reference_sigma(grid) + kx.ddc_m(u, grid), psi0


def test_kr_blowup_is_step_unstable():
    sigma, psi0 = _stiff_background_and_potential()
    with pytest.raises(StepUnstable, match="not finite"):
        kx.kr_integrate(100 * psi0, sigma, 0.5, dt=0.01)


def test_time_derivative_exact_on_quintics():
    # the not-a-knot quintic reproduces quintics, so its knot derivatives
    # are exact, on uneven sample times too
    ts = np.array([0.3, 0.34, 0.5, 0.52, 0.7, 0.81, 0.9, 1.05, 1.1])
    p = np.polynomial.Polynomial([0.7, -1.3, 0.4, 2.1, -0.8, 1.5])
    spline = time_spline(ts, np.outer(p(ts), [1.0, -2.0]))
    for order in (1, 2):
        exact = np.outer(p.deriv(order)(ts), [1.0, -2.0])
        assert np.max(np.abs(spline(ts, order) - exact)) < 1e-10


@pytest.mark.parametrize("ts", [np.linspace(0.0, 0.4, 5)],
                         ids=["five_uniform"])
@pytest.mark.parametrize("take", [
    lambda path: path.time_derivative(1),
    kx.concavity_shift, kx.geodesic_residual_path],
    ids=["time_derivative", "concavity_shift", "geodesic_residual_path"])
def test_time_stencil_needs_six_uniform_samples(tg, ts, take):
    # time_spline holds the one length rule of a path's time derivatives
    path = FlowPath(tg, kx.reference_sigma(tg), "x", ts,
                    np.zeros((len(ts),) + tg.spatial_shape))
    with pytest.raises(ValueError, match="time derivatives need"):
        take(path)


def _energy_non_increasing(sigma, path):
    es = [kx.calabi_energy(sigma, psi) for psi in path.psis]
    return all(es[k + 1] <= es[k] + 1e-12 * (1 + es[k])
               for k in range(len(es) - 1))


def test_energy_rise_halves_the_step(monkeypatch):
    sigma, psi0 = _stiff_background_and_potential()
    path = kx.calabi_integrate(psi0, sigma, 1e-4, save_count=9)
    # the default step, its half and its quarter raise the energy; an
    # eighth of it does not
    np.testing.assert_allclose(path.dt_history,
                               [1.25e-5, 6.25e-6, 3.125e-6, 1.5625e-6],
                               rtol=1e-12)
    assert path.n_samples == 9
    assert path.ts[-1] == pytest.approx(1e-4, rel=1e-12)
    gaps = np.diff(path.ts)
    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12 * gaps[0]
    assert _energy_non_increasing(sigma, path)
    monkeypatch.setattr(flows, "_MAX_HALVINGS", 2)
    with pytest.raises(StepUnstable, match="after 2 halvings"):
        kx.calabi_integrate(psi0, sigma, 1e-4, save_count=9)


@pytest.mark.parametrize("factor", [8, 64])
def test_long_calabi_steps_need_no_halving(factor):
    # explicit RK4 was stable up to 1.5705e-6 here; it raised StepUnstable
    # on its first step at 8 times that
    grid = kx.torus_grid(16, 9)
    sigma = kx.reference_sigma(grid)
    x1, x2 = grid.x1[:, None], grid.x2[None, :]
    psi0 = (3e-4 * np.cos(2 * np.pi * x1) * np.ones((1, grid.n_spatial))
            + 1e-6 * np.cos(14 * np.pi * x1) * np.cos(16 * np.pi * x2))
    path = kx.calabi_integrate(psi0, sigma, 400 * 1.5705e-6,
                               dt=factor * 1.5705e-6, save_count=9)
    assert len(path.dt_history) == 1
    assert _energy_non_increasing(sigma, path)
    assert kx.calabi_energy(sigma, path.psis[-1]) == pytest.approx(1.511e-3,
                                                                  rel=1e-3)


@pytest.mark.parametrize("const", [1.0, -7.3, 3.14159, 9.99])
def test_calabi_step_keeps_constant_potentials(const):
    for n in range(9, 41):
        sigma = kx.reference_sigma(kx.torus_grid(n, 9))
        psi0 = np.full(sigma.grid.spatial_shape, const)
        path = kx.calabi_integrate(psi0, sigma, 1e-4, dt=1e-4)
        assert np.max(np.abs(path.psis[-1] - psi0)) <= 1e-12, n


def test_calabi_keeps_a_fixed_point_with_stiff_content():
    # flat + dd^c u is the flat metric again at psi* = -u; u lives on mode 6
    grid = kx.torus_grid(32, 9)
    u = 1e-3 * np.cos(12 * np.pi * grid.x1)[:, None] * np.ones((1, 32))
    sigma = kx.reference_sigma(grid) + kx.ddc_m(u, grid)
    path = kx.calabi_integrate(-u, sigma, 1e-3, dt=1e-3)
    assert path.dt_history == [1e-3]
    assert np.max(np.abs(path.psis[-1] + u)) <= 1e-15


@pytest.mark.parametrize("run,kw", [
    (kx.calabi_integrate, {}), (kx.pseudo_calabi_integrate, {}),
    (kx.kr_integrate, {}), (kx.kr_integrate, {"normalized": True})],
    ids=["calabi", "pseudo_calabi", "kr", "nkr"])
def test_default_step_gives_save_count_samples(run, kw):
    grid = kx.torus_grid(32, 9)
    psi0 = 0.005 * np.cos(2 * np.pi * grid.x1)[:, None] * np.ones((1, 32))
    path = run(psi0, kx.reference_sigma(grid), 0.01, save_count=17, **kw)
    assert path.n_samples == 17
    assert path.dt_history == [pytest.approx(0.01 / 16, rel=1e-15)]


def _two_axis_potential(grid, amplitude):
    x1, x2 = np.meshgrid(grid.x1, grid.x2, indexing="ij")
    return amplitude * (np.cos(2 * np.pi * x1)
                        + np.sin(2 * np.pi * (x1 + 2 * x2)))


def test_torus_poisson_solve_inverts_the_metric_laplacian():
    grid = kx.torus_grid(17, 9, margin=2)
    h = 1.0 + 0.5 * _two_axis_potential(grid, 0.5)
    f = _two_axis_potential(grid, 1.0) ** 2
    f -= np.mean(f)
    # the metric Laplacian H^{-1} f_{z zbar}, inverted as the coupled flow
    # inverts it
    got = grid.solve_dzbar_dz(grid.dzbar_dz(f) / h * h)
    assert abs(np.mean(got)) <= 1e-15
    assert np.max(np.abs(got - f)) <= 1e-13 * np.max(np.abs(f))


# every transform numpy.fft offers
FFT_CALLS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
             "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def test_flows_and_poisson_solve_call_no_fft():
    from unittest import mock

    grid = kx.torus_grid(16, 9, margin=2)
    sigma = kx.reference_sigma(grid)
    psi0 = _two_axis_potential(grid, 1e-3)
    h = 1.0 + psi0
    runs = (
        lambda: kx.calabi_integrate(psi0, sigma, 1e-6, dt=1e-7),
        lambda: kx.pseudo_calabi_integrate(psi0, sigma, 1e-4, dt=1e-5),
        lambda: kx.kr_integrate(psi0, sigma, 1e-4, dt=1e-5),
        lambda: kx.kr_integrate(psi0, sigma, 1e-4, dt=1e-5, normalized=True),
        lambda: grid.solve_dzbar_dz((psi0 - np.mean(psi0 * h)) * h))
    # the first runs build the grid's cached matrices, with the FFT
    first = [run() for run in runs]
    with mock.patch.multiple(np.fft, **dict.fromkeys(FFT_CALLS,
                                                     mock.DEFAULT)) as called:
        again = [run() for run in runs]
    assert not any(f.called for f in called.values())
    for a, b in zip(first, again):
        assert np.array_equal(getattr(a, "psis", a), getattr(b, "psis", b))


def test_flow_path_validation(tg):
    sigma = kx.reference_sigma(tg)
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
    sigma = kx.reference_sigma(tg)
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
    path = FlowPath(tg, kx.reference_sigma(tg), "geodesic", ts, psis)
    assert kx.geodesic_residual_path(path).linf < 1e-7


def test_geodesic_residual_negative_control(tg):
    sigma = kx.reference_sigma(tg)
    ts = np.linspace(0, 0.3, 21)
    u = 0.01 * np.cos(2 * np.pi * tg.x1)[:, None] * np.ones((1, tg.n_spatial))
    psis = np.array([t * t * u for t in ts])
    rep = kx.geodesic_residual_path(FlowPath(tg, sigma, "bad", ts, psis))
    assert rep.linf > 1e-3  # spatially non-constant residual
