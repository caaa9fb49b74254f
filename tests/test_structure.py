import numpy as np
import pytest

import kredux as kx
from kredux.errors import NotPositive
from kredux.fields import ScalarFieldM, ScalarFieldP


def test_assemble_flat_cylinder(tg, cyl):
    assert np.max(np.abs(cyl.mu.values + tg.l)) < 1e-11
    assert np.max(np.abs(cyl.vsq.values - 2.0)) < 1e-10
    assert cyl.certificate.positive
    assert abs(cyl.certificate.min_eigenvalue - 1.0) < 1e-10


def test_assemble_fs_cylinder(rg, fscyl):
    assert np.max(np.abs(fscyl.mu.values + rg.l)) < 1e-11
    assert np.max(np.abs(fscyl.vsq.values - 2.0)) < 1e-10
    assert fscyl.certificate.positive
    # spatial block is the round metric itself
    assert np.max(np.abs(fscyl.omega.g11 - kx.reference_sigma(rg).h[..., None])) < 1e-12


def test_assemble_zero_potential_degenerates(tg):
    phi = ScalarFieldP(tg, np.zeros(tg.p_shape))
    with pytest.raises(NotPositive) as err:
        kx.assemble(kx.reference_sigma(tg), phi, 0.0)
    assert err.value.eigenvalue is not None
    assert err.value.node is not None


def test_monotone_moment_map(perturbed):
    dmu = perturbed.grid.d_l(perturbed.mu.values, 1)
    assert np.max(dmu) < 0.0


def test_omega_components_against_moment_map(perturbed):
    # mixed block is minus the spatial gradient of mu; fiber block is |V|^2/2
    g = perturbed.grid
    assert np.max(np.abs(perturbed.omega.g12
                         + g.dz_stripped(perturbed.mu.values))) < 1e-9
    assert np.max(np.abs(perturbed.omega.g22
                         - 0.5 * perturbed.vsq.values)) < 1e-9


# -- gauge moves -------------------------------------------------------------


def test_gauge_constant_drops_out(tg, cyl):
    K2 = kx.gauge(cyl, ScalarFieldM(tg, np.zeros(tg.spatial_shape)), 5.0, cyl.c)
    assert np.max(np.abs(K2.omega.g11 - cyl.omega.g11)) == 0.0
    assert np.max(np.abs(K2.mu.values - cyl.mu.values)) < 1e-12


def test_gauge_spatial_function(tg, cyl):
    u = ScalarFieldM(tg, 0.01 * np.sin(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    K2 = kx.gauge(cyl, u, 0.0, 0.0)
    assert np.max(np.abs(K2.omega.g11 - cyl.omega.g11)) < 1e-10
    assert np.max(np.abs(K2.omega.g12 - cyl.omega.g12)) < 1e-10
    assert np.max(np.abs(K2.omega.g22 - cyl.omega.g22)) < 1e-10
    assert np.max(np.abs(K2.mu.values - cyl.mu.values)) < 1e-10


def test_gauge_moment_constant(tg, cyl):
    # changing c recalibrates phi so the derived moment map is unchanged
    u = ScalarFieldM(tg, np.zeros(tg.spatial_shape))
    K2 = kx.gauge(cyl, u, 0.0, 1.0)
    diff = K2.mu.values - cyl.mu.values
    assert np.max(np.abs(diff - diff.flat[0])) < 1e-12  # constant shift
    assert np.max(np.abs(diff)) < 1e-10                 # and that constant is 0
    assert K2.c == 1.0


def test_gauge_rejects_nonpositive_base(tg, cyl):
    u = ScalarFieldM(tg, 10.0 * np.sin(2 * np.pi * tg.x1)[:, None]
                     * np.ones((1, tg.n_spatial)))
    with pytest.raises(NotPositive):
        kx.gauge(cyl, u, 0.0, 0.0)


# -- moment map -> potential --------------------------------------------------


def test_potential_from_constant_moment(tg):
    mu = ScalarFieldP(tg, np.full(tg.p_shape, 0.7))
    phi = kx.potential_from_moment(mu, 0.7)
    assert np.max(np.abs(phi.values)) < 1e-13


def test_potential_from_linear_moment(tg):
    mu = ScalarFieldP(tg, np.broadcast_to(-tg.l, tg.p_shape).copy())
    phi = kx.potential_from_moment(mu, 0.0)
    expect = 0.25 * (tg.l ** 2 - tg.l_min ** 2)
    assert np.max(np.abs(phi.values - expect)) < 1e-10


def test_potential_from_moment_roundtrip_quotient_fixture():
    grid = kx.golden_grid()
    mu = kx.singquot_moment(grid)
    phi = kx.potential_from_moment(mu, 0.0)
    back = kx.jv_apply(phi)
    gap = np.abs(back.values - mu.values)
    assert grid.interior_norms(gap)[0] < 1e-8


def test_potential_from_moment_is_c_ordered():
    # fd_apply copies a field that is not C-ordered on every call
    phi = kx.potential_from_moment(
        kx.singquot_moment(kx.golden_grid(65, 33)), 0.0)
    assert phi.values.flags.c_contiguous


def _roundtrip_gaps(K):
    phi2 = kx.potential_from_moment(K.mu, K.c)
    diff = K.phi.values - phi2.values
    fiber_dev = np.max(np.abs(diff - diff[..., :1]))
    phi3 = ScalarFieldP(K.grid, phi2.values + diff[..., :1])
    K2 = kx.assemble(K.sigma, phi3, K.c)
    return fiber_dev, max(
        np.max(np.abs(K2.omega.g11 - K.omega.g11)),
        np.max(np.abs(K2.omega.g22 - K.omega.g22)),
        np.max(np.abs(K2.mu.values - K.mu.values)))


def test_roundtrip_reassembly_polynomial_fiber(tg):
    # cubic fiber content and genuine base dependence: the fiber stencils and
    # the quadrature are exact, so the round trip closes at roundoff
    a = 0.02 * np.cos(2 * np.pi * tg.x1)[:, None, None]
    phi = ScalarFieldP(tg, np.broadcast_to(
        0.25 * tg.l ** 2 + a * (tg.l / tg.l_max) ** 3, tg.p_shape).copy())
    K = kx.assemble(kx.reference_sigma(tg), phi, 0.0)
    fiber_dev, reassembly = _roundtrip_gaps(K)
    assert fiber_dev < 1e-9
    assert reassembly < 1e-9


def test_roundtrip_reassembly_transcendental_fiber(perturbed):
    # transcendental fiber profiles close the loop at the stencil order
    fiber_dev, reassembly = _roundtrip_gaps(perturbed)
    assert fiber_dev < 5e-9
    assert reassembly < 1e-6
    coarse = kx.perturbed(kx.torus_grid(n=32, n_l=65), 0.02)
    fd2, re2 = _roundtrip_gaps(coarse)
    assert np.log2(re2 / reassembly) > 2.0


# -- derived-geometry cache ---------------------------------------------------


@pytest.fixture
def small():
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    return kx.perturbed(grid, 0.02)


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (ScalarFieldM, ScalarFieldP)):
        return [value.values]
    if isinstance(value, kx.Form11P):
        return [a for a in (value.g11, value.g12, value.g22, value.b20)
                if a is not None]
    if isinstance(value, kx.Form11M):
        return [value.h]
    if isinstance(value, kx.LevelSet):
        w = value.weights
        return [value.l_tau.values, value.missing, w.flat, w.hit, w.on_node,
                w.d, w.c, w.denom]
    return (_arrays(value.l_tau) + _arrays(value.psi_tau)
            + _arrays(value.omega_tau))


def test_cached_geometry_is_read_only(small):
    from kredux.curvature import descent_drift, moment_laplacian

    derived = [descent_drift(small), moment_laplacian(small),
               small._cache["dl_log_v"], small.omega_det(),
               kx.level_set(small, 0.2), kx.reduced_potential(small, 0.2),
               small.ddc_mu()]
    for value in derived:
        arrays = _arrays(value)
        assert arrays
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
    # asking again returns the stored object, not a recomputation
    assert descent_drift(small) is derived[0]
    assert kx.level_set(small, 0.2) is derived[4]
    assert kx.reduced_potential(small, 0.2).l_tau is derived[4].l_tau
    # no Ricci form is kept: each call hands out a fresh, writable one
    fresh = kx.ricci_p(small)
    kx.descending_forms(small, identity=True)
    assert "ricci_p" not in small._cache and fresh.g11.flags.writeable
    again = kx.ricci_p(small)
    assert again is not fresh and np.array_equal(again.g11, fresh.g11)


def _per_pass(monkeypatch, name, counts):
    """Run a battery pass and each residual command's equation on one
    structure K, and how many calls of ``name`` (from ``curvature`` or
    ``statics``) each made for which ``counts(K, args)`` holds, by name of
    the run."""
    from kredux import curvature, statics, verify

    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    K = kx.fixtures.battery_fixture(grid)
    calls = []
    real = getattr(curvature, name)

    def counting(*args, **kwargs):
        calls.append(counts(K, args))
        return real(*args, **kwargs)

    for module in (curvature, statics):
        monkeypatch.setattr(module, name, counting)
    runs = {"battery": lambda: verify.battery_once(K)}
    for eq in statics.RESIDUALS:
        runs[eq] = lambda eq=eq: statics.RESIDUALS[eq](K, taus=[0.1])
    seen = {}
    for run_name, run in runs.items():
        del calls[:]
        run()
        seen[run_name] = sum(calls)
    return seen


def test_ricci_p_computed_once_per_pass(monkeypatch):
    # one fresh Ricci form per battery pass and per residual command; the
    # kr residual builds the residual and its dominant term in two, as it
    # did while the structure kept one
    seen = _per_pass(monkeypatch, "ricci_p", lambda K, args: 1)
    assert seen == {"battery": 1, "geodesic": 0, "calabi": 1,
                    "pseudo_calabi": 1, "kr": 2, "v_soliton": 1}


def test_ddc_mu_computed_once_per_structure(small, monkeypatch):
    import kredux.structure as structure

    calls = []
    real = structure.ddc_p

    def counting(f, *args):
        calls.append(f)
        return real(f, *args)

    monkeypatch.setattr(structure, "ddc_p", counting)
    g = ScalarFieldP(small.grid, np.ones(small.grid.p_shape)) / small.vsq
    kx.descending_ricci(small)
    kx.check_moment_ricci_identity(small)
    kx.ma_reduced(small, g, 0.1)
    kx.residual_kr(small, taus=[0.1])
    kx.d_wedge_dc(g, small, into=kx.ddc_p(g))
    assert calls == [small.mu]
    assert np.array_equal(small.ddc_mu().g12, kx.ddc_p(small.mu).g12)


@pytest.mark.parametrize("kind", ["torus", "radial"])
@pytest.mark.parametrize("n_l", [33, 65, 129])
def test_halved_vsq_is_the_moment_map_slope(kind, n_l):
    # dd^c mu reads its fiber slope off |V|^2 = -2 d_l mu
    if kind == "torus":
        grid, amplitude = kx.torus_grid(n=16, n_l=n_l, margin=4), 0.02
    else:
        grid, amplitude = kx.radial_grid(n_u=65, n_l=n_l, margin=4), 0.01
    for K in (kx.cylinder(grid), kx.perturbed(grid, amplitude)):
        want = grid.d_l(K.mu.values, 1)
        assert (-0.5 * K.vsq.values).tobytes() == want.tobytes()


def test_ddc_log_v_computed_once_per_pass(monkeypatch):
    # dd^c log|V| is built once by each battery pass and each residual
    # command that reads it; no structure keeps it.  v_soliton's one
    # dd^c(log|V| + f(mu)) counts: its f = lambda mu^2 / 4 is 0 here
    import kredux.curvature as curvature

    def is_log_v(K, args):
        return np.array_equal(args[0].values, curvature.log_v(K).values)

    seen = _per_pass(monkeypatch, "ddc_p", is_log_v)
    assert seen == {"battery": 1, "geodesic": 0, "calabi": 1,
                    "pseudo_calabi": 1, "kr": 1, "v_soliton": 1}


def test_level_set_solved_once_per_level(small, monkeypatch):
    from kredux.interp import FiberInterp

    solves = []
    real = FiberInterp.solve_decreasing

    def counting(self, target, **kw):
        solves.append(target)
        return real(self, target, **kw)

    monkeypatch.setattr(FiberInterp, "solve_decreasing", counting)
    for _ in range(3):
        kx.level_set(small, 0.2)
        kx.reduced_potential(small, 0.2)
    assert solves == [0.2]
    assert kx.level_set(small, 0.2).iterations > 0


def test_sweeps_solve_their_levels_together(small, monkeypatch):
    from kredux.interp import FiberInterp

    solves = []
    real = FiberInterp.solve_decreasing

    def counting(self, target):
        solves.append(np.size(target))
        return real(self, target)

    monkeypatch.setattr(FiberInterp, "solve_decreasing", counting)
    taus = kx.default_taus(small)
    kx.residual_calabi(small, kx.constant_profile(0.0), taus=taus)
    kx.residual_kr(small, taus=taus)
    kx.check_dertau(small, small.mu, taus[:3])
    # one solve of the 7 levels, then one of the 6 new levels at tau +- dtau
    assert solves == [7, 6]


def test_gauge_starts_with_fresh_cache(small):
    from kredux.curvature import descent_drift

    drift = descent_drift(small)
    kx.level_set(small, 0.2)
    u = ScalarFieldM(small.grid, np.zeros(small.grid.spatial_shape))
    K2 = kx.gauge(small, u, 1.0, small.c)
    assert K2._cache == {}
    drift2 = descent_drift(K2)
    assert drift2 is not drift
    assert np.max(np.abs(drift2.values - drift.values)) < 1e-9
    assert descent_drift(small) is drift
