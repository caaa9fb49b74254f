import numpy as np
import pytest

import kredux as kx
from kredux.fields import ScalarFieldM, ScalarFieldP, interior_norms


def p_field(grid, fn):
    if grid.kind == "torus":
        x1 = grid.x1[:, None, None]
        x2 = grid.x2[None, :, None]
        l = grid.l[None, None, :]
    else:
        x1 = grid.v[:, None]
        x2 = None
        l = grid.l[None, :]
    return ScalarFieldP(grid, np.broadcast_to(fn(x1, x2, l), grid.p_shape).copy())


@pytest.fixture(scope="module")
def g():
    return kx.torus_grid(n=32, n_l=65)


# -- fiber stencil -----------------------------------------------------------

def test_differentiate_fiber_quadratic(g):
    f = p_field(g, lambda x1, x2, l: l * l)
    assert np.max(np.abs(g.d_l(f.values, 2) - 2.0)) < 1e-8


def test_differentiate_fiber_exponential_order():
    errs = []
    for n_l in (65, 129):
        grid = kx.torus_grid(n=9, n_l=n_l)
        f = p_field(grid, lambda x1, x2, l: np.exp(l))
        gap = np.abs(grid.d_l(f.values, 1) - f.values)
        errs.append(interior_norms(gap, grid.interior_p())[0])
    assert np.log2(errs[0] / errs[1]) >= 3.5


# -- jv_apply ---------------------------------------------------------------

def test_jv_on_log_fiber(g):
    f = p_field(g, lambda x1, x2, l: l)
    assert np.max(np.abs(kx.jv_apply(f).values + 2.0)) < 1e-12


def test_jv_on_fiber_independent(g):
    f = p_field(g, lambda x1, x2, l: np.cos(2 * np.pi * x1) + 0 * l)
    assert np.max(np.abs(kx.jv_apply(f).values)) == 0.0


def test_jv_on_cylinder_potential(g):
    f = p_field(g, lambda x1, x2, l: 0.25 * l * l)
    assert np.max(np.abs(kx.jv_apply(f).values + g.l)) < 1e-11


# -- ddc on the base --------------------------------------------------------

def test_ddc_m_constant(g):
    f = ScalarFieldM(g, np.ones(g.spatial_shape))
    assert np.max(np.abs(kx.ddc_m(f).h)) == 0.0


def test_ddc_m_torus_mode(g):
    x1 = g.x1[:, None] * np.ones((1, g.n_spatial))
    f = ScalarFieldM(g, np.cos(2 * np.pi * x1))
    expect = -2 * np.pi ** 2 * np.cos(2 * np.pi * x1)
    assert np.max(np.abs(kx.ddc_m(f).h - expect)) < 1e-9


def test_ddc_m_radial_log():
    grid = kx.radial_grid(n_u=257, n_l=33)
    f = ScalarFieldM(grid, np.log(1.0 + grid.u))
    # closed form: dd^c log(1+u) has component 2/(1+u)^2; the canonical round
    # metric is half of it
    expect = 2.0 / (1.0 + grid.u) ** 2
    gap = np.abs(kx.ddc_m(f).h - expect)
    assert interior_norms(gap, grid.interior_m())[0] < 1e-6
    half = kx.fs_sigma(grid).h
    assert np.max(np.abs(2.0 * half - expect)) < 1e-14


# -- ddc on the total space -------------------------------------------------

def test_ddc_p_cylinder_potential(g):
    f = p_field(g, lambda x1, x2, l: 0.25 * l * l)
    form = kx.ddc_p(f)
    assert np.max(np.abs(form.g11)) == 0.0
    assert np.max(np.abs(form.g12)) == 0.0
    assert np.max(np.abs(form.g22 - 1.0)) < 1e-10
    assert np.min(form.g22) > 0


def test_ddc_p_base_function(g):
    f = p_field(g, lambda x1, x2, l: np.sin(2 * np.pi * x2) + 0 * l)
    form = kx.ddc_p(f)
    base = kx.ddc_m(ScalarFieldM(g, f.values[:, :, 0]))
    assert np.max(np.abs(form.g22)) == 0.0
    assert np.max(np.abs(form.g12)) == 0.0
    assert np.max(np.abs(form.g11 - base.h[..., None])) < 1e-12


def test_ddc_p_log_fiber_vanishes(g):
    f = p_field(g, lambda x1, x2, l: l)
    form = kx.ddc_p(f)
    for comp in (form.g11, form.g12, form.g22):
        assert np.max(np.abs(comp)) < 1e-11


# -- contractions -----------------------------------------------------------

def test_contract_v_cylinder(g, ):
    K = kx.flat_cylinder(g)
    cv = kx.contract_v(K.omega)
    assert np.max(np.abs(cv.vv - 2.0)) < 1e-10
    assert np.max(np.abs(cv.vv - kx.jv_apply(K.mu).values)) < 1e-10


def test_contract_v_zero_fiber_blocks(g):
    from kredux.fields import Form11P

    theta = Form11P(g, np.random.default_rng(0).normal(size=g.p_shape),
                    np.zeros(g.p_shape, dtype=complex), np.zeros(g.p_shape))
    cv = kx.contract_v(theta)
    assert np.max(np.abs(cv.z)) == 0.0
    assert np.max(np.abs(cv.l)) == 0.0


def test_contract_v_top_form_factor(g):
    K = kx.flat_cylinder(g)
    eta = kx.contract_v(kx.wedge_square(K.omega))
    expect = 0.5 * K.vsq.values * K.sigma.h[..., None]
    assert np.max(np.abs(eta.values - expect)) < 1e-10


# -- quadrature -------------------------------------------------------------

def test_integrate_unit(g):
    sigma = kx.flat_sigma(g)
    assert abs(kx.integrate_m(np.ones(g.spatial_shape), sigma) - 1.0) < 1e-12


def test_integrate_mean_zero_mode(g):
    sigma = kx.flat_sigma(g)
    x1 = g.x1[:, None] * np.ones((1, g.n_spatial))
    assert abs(kx.integrate_m(np.sin(2 * np.pi * x1), sigma)) < 1e-12


def test_integrate_cos_squared(g):
    sigma = kx.flat_sigma(g)
    x1 = g.x1[:, None] * np.ones((1, g.n_spatial))
    assert abs(kx.integrate_m(np.cos(2 * np.pi * x1) ** 2, sigma) - 0.5) < 1e-10


def test_integrate_rejects_nonpositive(g):
    from kredux.fields import Form11M

    bad = Form11M(g, np.zeros(g.spatial_shape))
    with pytest.raises(ValueError):
        kx.integrate_m(np.ones(g.spatial_shape), bad)


# -- gradients --------------------------------------------------------------

def test_grad_pair_constant(g):
    sigma = kx.flat_sigma(g)
    c = ScalarFieldM(g, np.ones(g.spatial_shape))
    assert np.max(np.abs(kx.grad_pair(c, c, sigma).values)) == 0.0


def test_grad_pair_exponential_identity(g):
    # the convention-fixing identity D e^f = e^f (D f + |grad f|^2 / 2)
    from kredux.curvature import laplacian_m

    sigma = kx.flat_sigma(g)
    rng = np.random.default_rng(3)
    f = kx.fixtures.random_resolved_m(g, rng, modes=2, amplitude=0.2)
    ef = ScalarFieldM(g, np.exp(f.values))
    lhs = laplacian_m(ef, sigma).values
    rhs = ef.values * (laplacian_m(f, sigma).values
                       + 0.5 * kx.grad_pair(f, f, sigma).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_grad_pair_orthogonal(g):
    sigma = kx.flat_sigma(g)
    f = ScalarFieldM(g, np.sin(2 * np.pi * g.x2)[None, :] * np.ones((g.n_spatial, 1)))
    h = ScalarFieldM(g, np.cos(2 * np.pi * g.x1)[:, None] * np.ones((1, g.n_spatial)))
    assert np.max(np.abs(kx.grad_pair(f, h, sigma).values)) < 1e-10


# -- linearity --------------------------------------------------------------

def test_linearity_of_operators(g):
    rng = np.random.default_rng(11)
    f = kx.fixtures.random_resolved_p(g, rng)
    h = kx.fixtures.random_resolved_p(g, rng)
    a, b = 1.37, -0.61
    combo = a * f + b * h
    # rounding bound: machine epsilon times the summed stencil magnitude
    amp = 6.0 / g.h_l ** 2 + (np.pi * g.n_spatial) ** 2
    floor = 30 * np.finfo(float).eps * (1 + abs(a) + abs(b)) * amp

    for op in (lambda q: g.d_l(q.values, 1),
               lambda q: kx.jv_apply(q).values,
               lambda q: kx.ddc_p(q).g22,
               lambda q: kx.ddc_p(q).g11):
        gap = op(combo) - (a * op(f) + b * op(h))
        in_sup = max(np.max(np.abs(f.values)), np.max(np.abs(h.values)))
        assert np.max(np.abs(gap)) < max(1e-12, floor * in_sup)


@pytest.mark.parametrize("component", ["g11", "g12", "g22", "b20"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_form11p_rejects_non_finite(g, component, bad):
    parts = {"g11": np.ones(g.p_shape), "g12": np.zeros(g.p_shape, complex),
             "g22": np.ones(g.p_shape), "b20": np.zeros(g.p_shape, complex)}
    parts[component][1, 0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kx.Form11P(g, **parts)


def test_top_form_rejects_non_finite(g):
    t = np.ones(g.p_shape)
    assert kx.TopFormP(g, t).t.flags.c_contiguous
    t[0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        kx.TopFormP(g, t)
    with pytest.raises(ValueError, match="shape"):
        kx.TopFormP(g, np.ones(g.spatial_shape))
