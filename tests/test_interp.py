import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

import kredux as kx
import kredux.interp
from kredux.errors import NotConverged
from kredux.interp import FiberInterp, FiberWeights, QuinticSpline


def test_quintic_exactness():
    l = np.linspace(-2, 2, 33)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(4, 6))  # 4 "spatial nodes", degree-5 polys
    vals = np.array([np.polyval(c, l) for c in coeffs])
    fi = FiberInterp(l, vals)
    pts = rng.uniform(-2, 2, size=4)
    expect = np.array([np.polyval(c, p) for c, p in zip(coeffs, pts)])
    assert np.max(np.abs(fi.at(pts) - expect)) < 1e-11


@pytest.mark.parametrize("x,y,message", [
    ([0.0], [1.0], "at least 2 knots"),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 0.0], "must be finite"),
    ([0.0, 2.0, 1.0], [1.0, 0.0, 2.0], "strictly increasing"),
])
def test_quintic_spline_rejects_bad_samples(x, y, message):
    with pytest.raises(ValueError, match=message):
        QuinticSpline(x, y)


def test_node_hit_is_exact():
    l = np.linspace(-1, 1, 17)
    vals = np.sin(3 * l)[None, :]
    fi = FiberInterp(l, vals)
    assert fi.at(np.array([l[7]]))[0] == vals[0, 7]


def test_sixth_order_convergence():
    errs = []
    for n in (33, 65):
        l = np.linspace(-1, 1, n)
        fi = FiberInterp(l, np.exp(l)[None, :])
        pts = np.array([0.3137])
        errs.append(abs(fi.at(pts)[0] - np.exp(0.3137)))
    assert np.log2(errs[0] / errs[1]) > 5.0


def _slope(l, values, x):
    w = FiberWeights(l, x)
    fj = w.window(values)
    return w.slope(fj, w.value(fj))


def test_derivative_accuracy():
    l = np.linspace(-1, 1, 65)
    slope = _slope(l, np.exp(l)[None, :], np.array([0.213]))
    assert abs(slope[0] - np.exp(0.213)) < 1e-9


def test_slope_on_a_node():
    # the slope of the node's window polynomial, not a difference quotient
    l = np.linspace(-1, 1, 65)
    x = l[[0, 20, 32, 64]]
    slope = _slope(l, np.repeat(np.exp(l)[None, :], 4, axis=0), x)
    # measured 1.3e-8 at the last node, whose window is one-sided
    assert np.max(np.abs(slope - np.exp(x))) < 2e-8
    assert np.max(np.abs(slope[1:3] - np.exp(x[1:3]))) < 1e-9


def test_solve_decreasing_roots():
    l = np.linspace(-2, 2, 65)
    slopes = np.array([1.0, 2.0, 0.3])
    vals = -slopes[:, None] * l  # root of -a*l = tau at l = -tau/a
    fi = FiberInterp(l, vals)
    roots, missing, resid, _ = fi.solve_decreasing(0.5)[0][:4]
    assert not missing.any()
    assert np.max(np.abs(roots + 0.5 / slopes)) < 1e-12
    assert resid < 1e-12


def test_solve_decreasing_missing_mask():
    l = np.linspace(-2, 2, 65)
    slopes = np.array([1.0, 2.0, 0.3])
    fi = FiberInterp(l, -slopes[:, None] * l)
    # ranges are [-2, 2], [-4, 4], [-0.6, 0.6]; only the last misses 0.7
    roots, missing, resid, _ = fi.solve_decreasing(0.7)[0][:4]
    assert list(missing) == [False, False, True]
    # the missing node is left out of the solve and set to the first node
    assert roots[2] == l[0]
    assert np.max(np.abs(roots[:2] + 0.7 / slopes[:2])) < 1e-12
    assert resid < 1e-12


def test_solve_transcendental():
    l = np.linspace(-1.5, 1.5, 129)
    fi = FiberInterp(l, (-np.sinh(l))[None, :])
    roots, missing, resid, _ = fi.solve_decreasing(0.8)[0][:4]
    assert not missing.any()
    assert abs(roots[0] + np.arcsinh(0.8)) < 1e-9
    assert resid < 1e-12


def test_antiderivative():
    l = np.linspace(0, 1, 65)
    F = FiberInterp(l, (3 * l * l)[None, :]).antiderivative()
    assert F.shape == (1, 65) and F.flags.c_contiguous
    assert np.max(np.abs(F[0] - l ** 3)) < 1e-14
    # the integral from the l_max end, as reparametrize takes it
    assert np.max(np.abs((F[..., -1:] - F)[0] - (1 - l ** 3))) < 1e-14


def _closed_form(n_l):
    """exp(sin(3x) l) + cos(5 l) on l in [-1.2, 1.2] at 16 nodes x (none with
    sin(3x) = 0), and its integral from l = -1.2."""
    a = np.sin(3 * (np.arange(16) + 0.5) * 2 * np.pi / 16)[:, None]
    l = np.linspace(-1.2, 1.2, n_l)
    f = np.exp(a * l) + np.cos(5 * l)
    F = (np.exp(a * l) - np.exp(-1.2 * a)) / a + (np.sin(5 * l) + np.sin(6)) / 5
    return l, f, F


def test_antiderivative_is_sixth_order():
    errs = []
    for n_l in (33, 65, 129, 257):
        l, f, F = _closed_form(n_l)
        errs.append(np.max(np.abs(FiberInterp(l, f).antiderivative() - F)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 5.5), (errs, orders)


def test_antiderivative_matches_quintic_spline():
    # both methods are 6th order: on the closed form they agree to their
    # errors (5.1e-10 and 1.5e-10 at n_l = 129)
    l, f, F = _closed_form(129)
    ref = make_interp_spline(l, f, k=5, axis=1).antiderivative()(l)
    ref = ref - ref[:, :1]
    assert np.max(np.abs(ref - F)) < 1e-9
    assert np.max(np.abs(FiberInterp(l, f).antiderivative() - ref)) < 1e-9


def test_solve_decreasing_raises_when_not_converged(monkeypatch):
    l = np.linspace(-1.5, 1.5, 129)
    fi = FiberInterp(l, np.stack([-np.sinh(l), -l]))
    roots, missing, resid, iterations = fi.solve_decreasing(0.8)[0][:4]
    # measured: 2 steps from the secant point of -sinh's segment
    assert 0 < iterations <= 2
    assert resid < 1e-15
    monkeypatch.setattr(kredux.interp, "MAX_NEWTON_STEPS", iterations - 1)
    with pytest.raises(NotConverged, match="level solve at 0.8"):
        fi.solve_decreasing(0.8)


def test_solve_decreasing_names_the_level_that_does_not_converge(monkeypatch):
    # solved together, 0.0 is a node value of both profiles (no step) and
    # 0.8 takes 2 steps on -sinh
    l = np.linspace(-1.5, 1.5, 129)
    fi = FiberInterp(l, np.stack([-np.sinh(l), -l]))
    levels = fi.solve_decreasing(np.array([0.0, 0.8]))
    assert [steps for _, _, _, steps, _ in levels] == [0, 2]
    monkeypatch.setattr(kredux.interp, "MAX_NEWTON_STEPS", 1)
    for order in ([0.0, 0.8], [0.8, 0.0]):
        with pytest.raises(NotConverged, match="level solve at 0.8: 1 roots"):
            fi.solve_decreasing(np.array(order))


def _profiles(l):
    """Three decreasing profiles across the window, from 0 down."""
    t = (l - l[0]) / (l[-1] - l[0])
    return np.stack([-t, -np.sinh(2 * t), -(t + t ** 3)])


@pytest.mark.parametrize("lo,hi,n_l", [(1000.0, 1001.0, 33),
                                       (1.0, 1.0 + 1e-6, 129),
                                       (-5e-7, 5e-7, 33)])
def test_solve_decreasing_on_shifted_and_narrow_windows(lo, hi, n_l):
    # at (1, 1 + 1e-6) with 129 nodes, 1e-8 h is below half an ulp of l, so
    # nudging a point off its node to take a slope would not move it
    l = np.linspace(lo, hi, n_l)
    fi = FiberInterp(l, _profiles(l))
    for tau in (-0.3, -0.5, -0.9):
        roots, missing, resid, iterations = fi.solve_decreasing(tau)[0][:4]
        assert not missing.any()
        assert iterations <= 5
        # the first profile is a line: its root to a few ulps of the window
        want = lo - tau * (hi - lo)
        assert abs(roots[0] - want) <= 4 * np.finfo(float).eps * abs(hi)


def test_solve_decreasing_root_at_window_end():
    # the first node's root is the last fiber node, which its last segment's
    # secant point hits without a step; the second's root is inside
    l = np.linspace(-1.2, 1.2, 33)
    fi = FiberInterp(l, np.stack([-np.sinh(l), -np.sinh(l) - 0.1]))
    roots, missing, resid, iterations = fi.solve_decreasing(
        -np.sinh(1.2))[0][:4]
    assert not missing.any()
    # it may stop on the flat plateau within 1e-13 h of the last node
    assert abs(roots[0] - 1.2) <= 1e-13 * (l[1] - l[0])
    assert resid <= 1e-15
    # measured 3, all on the second node
    assert iterations <= 3


def test_solve_decreasing_level_at_a_node_value():
    # a target equal to a node value returns that node, without a step
    l = np.linspace(-1.2, 1.2, 33)
    vals = np.stack([-np.sinh(l), -l - 0.3 * l ** 3, -np.tanh(2 * l)])
    for j in (0, 5, 16, 31, 32):
        fi = FiberInterp(l, vals - vals[:, j:j + 1])
        roots, missing, resid, iterations = fi.solve_decreasing(0.0)[0][:4]
        assert not missing.any()
        assert np.all(roots == l[j])
        assert resid == 0.0 and iterations == 0


@pytest.mark.parametrize("build", [
    lambda: kx.perturbed(kx.radial_grid(257, 129), 0.005),
    lambda: kx.perturbed(kx.torus_grid(32, 129), 0.02)],
    ids=["radial", "torus"])
def test_solve_decreasing_steps_per_level(build):
    # bracketed in its segment and started at the secant point, each level
    # polishes in a few Newton steps: measured [2, 2, 2, 0, 2, 2, 2] on both
    K = build()
    steps = [kx.level_set(K, tau).iterations for tau in kx.default_taus(K)]
    assert max(steps) <= 3, steps


def test_solve_decreasing_snap_plateau():
    # mu = -l and tau = -7.3e-15: the root lies within 1e-13 h of the node
    # l = 0, where the interpolant is flat, so no residual test would stop
    K = kx.cylinder(kx.torus_grid(16, 33, margin=4))
    tau = kx.default_taus(K, count=9, shrink=0.15)[4]
    assert -1e-14 < tau < 0
    level = kx.level_set(K, tau)
    assert level.iterations <= 5
    assert np.max(np.abs(level.l_tau.values + tau)) <= 1e-15


@pytest.mark.parametrize("s", [1e-8, 1e8])
def test_solve_decreasing_is_scale_free(s):
    l = np.linspace(-1.2, 1.2, 129)
    vals = np.stack([-np.sinh(l), -l - 0.3 * l ** 3, -np.tanh(2 * l)])
    roots, _, resid, iterations = FiberInterp(
        l, vals).solve_decreasing(0.37)[0][:4]
    roots_s, _, resid_s, iterations_s = FiberInterp(
        l, s * vals).solve_decreasing(s * 0.37)[0][:4]
    assert iterations_s == iterations
    # measured: roots 1.1e-16 apart, residuals 1.5e-16 apart (in units of mu)
    assert np.max(np.abs(roots_s - roots)) <= 1e-15
    assert abs(resid_s / s - resid) <= 1e-15


def test_level_set_reports_iterations(perturbed):
    level = kx.level_set(perturbed, 0.3)
    assert level.iterations > 0
    assert level.max_residual < 1e-12


def test_level_weights_are_the_weights_at_the_roots(perturbed):
    # each level keeps the solver's own weights; they evaluate any field as
    # weights(roots) does, bit for bit
    from kredux.reduction import level_sets

    K = perturbed
    flat = K.mu.values.reshape(-1, K.grid.n_l)
    taus = np.concatenate([kx.default_taus(K),
                           [np.max(flat[:, -1]), np.min(flat[:, 0])]])
    rng = np.random.default_rng(3)
    real = rng.standard_normal(K.grid.p_shape)
    cplx = real + 1j * rng.standard_normal(K.grid.p_shape)
    for level in level_sets(K, taus):
        at_roots = K.mu_interp().weights(level.l_tau.values)
        for f in (real, cplx):
            got, want = level.weights.apply(f), at_roots.apply(f)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
