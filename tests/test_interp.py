import numpy as np
import pytest

import kredux as kx
from kredux.errors import NotConverged
from kredux.interp import FiberInterp, FiberSpline


def test_quintic_exactness():
    l = np.linspace(-2, 2, 33)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(4, 6))  # 4 "spatial nodes", degree-5 polys
    vals = np.array([np.polyval(c, l) for c in coeffs])
    fi = FiberInterp(l, vals)
    pts = rng.uniform(-2, 2, size=4)
    expect = np.array([np.polyval(c, p) for c, p in zip(coeffs, pts)])
    assert np.max(np.abs(fi.at(pts) - expect)) < 1e-11


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


def test_derivative_accuracy():
    l = np.linspace(-1, 1, 65)
    fi = FiberInterp(l, np.exp(l)[None, :])
    p = np.array([0.213])
    assert abs(fi.deriv_at(p)[0] - np.exp(0.213)) < 1e-9


def test_solve_decreasing_roots():
    l = np.linspace(-2, 2, 65)
    slopes = np.array([1.0, 2.0, 0.3])
    vals = -slopes[:, None] * l  # root of -a*l = tau at l = -tau/a
    fi = FiberInterp(l, vals)
    roots, missing, resid, _ = fi.solve_decreasing(0.5)
    assert not missing.any()
    assert np.max(np.abs(roots + 0.5 / slopes)) < 1e-12
    assert resid < 1e-12


def test_solve_decreasing_missing_mask():
    l = np.linspace(-2, 2, 65)
    slopes = np.array([1.0, 2.0, 0.3])
    fi = FiberInterp(l, -slopes[:, None] * l)
    # ranges are [-2, 2], [-4, 4], [-0.6, 0.6]; only the last misses 0.7
    roots, missing, resid, _ = fi.solve_decreasing(0.7)
    assert list(missing) == [False, False, True]
    # the missing node is left out of the solve and set to the first node
    assert roots[2] == l[0]
    assert np.max(np.abs(roots[:2] + 0.7 / slopes[:2])) < 1e-12
    assert resid < 1e-12


def test_solve_transcendental():
    l = np.linspace(-1.5, 1.5, 129)
    fi = FiberInterp(l, (-np.sinh(l))[None, :])
    roots, missing, resid, _ = fi.solve_decreasing(0.8)
    assert not missing.any()
    assert abs(roots[0] + np.arcsinh(0.8)) < 1e-9
    assert resid < 1e-12


def test_antiderivative():
    l = np.linspace(0, 1, 65)
    fs = FiberSpline(l, (3 * l * l)[None, :])
    vals = fs.antiderivative_values()
    assert np.max(np.abs(vals[0] - l ** 3)) < 1e-9
    from_end = fs.antiderivative_from_end()
    assert np.max(np.abs(from_end[0] - (1 - l ** 3))) < 1e-9


def test_solve_decreasing_raises_when_not_converged():
    l = np.linspace(-1.5, 1.5, 129)
    fi = FiberInterp(l, np.stack([-np.sinh(l), -l]))
    with pytest.raises(NotConverged):
        fi.solve_decreasing(0.8, max_iter=2)
    roots, missing, resid, iterations = fi.solve_decreasing(0.8)
    assert 2 < iterations < 120
    assert resid < 1e-12


def test_level_set_reports_iterations(perturbed):
    level = kx.level_set(perturbed, 0.3)
    assert level.iterations > 0
    assert level.max_residual < 1e-12
