"""Canonical testbed data used across the verification suites, keyed by the
grid it is given.  This module maps a testbed to its reference data; with
:mod:`kredux.grids`, it is the only one that decides by testbed.

* reference metric: the flat unit-volume torus, or the round metric on CP^1
  (component 1/(1+u)^2 in the radial chart, scalar curvature 2).
* cylinder: the reference metric times the standard cylinder fiber,
  phi = l^2/4, c = 0; moment map mu = -l, |V|^2 = 2.
* perturbed: the cylinder with phi += amplitude * bump * exp(-l^2), the bump
  being cos(2 pi x1) on the torus and exp(-v^2/4) in the radial chart.
* singular quotient moment map, see :mod:`kredux.golden`.
"""

from __future__ import annotations

import numpy as np

from .fields import Form11M, ScalarFieldM, ScalarFieldP
from .grids import TORUS, TestbedGrid
from .structure import KahlerData, assemble


def reference_sigma(grid: TestbedGrid) -> Form11M:
    """Flat metric on the torus; round CP^1 metric H = 1/(1+u)^2 in the
    radial chart."""
    if grid.kind == TORUS:
        return Form11M(grid, np.ones(grid.spatial_shape))
    return Form11M(grid, 1.0 / (1.0 + grid.u) ** 2)


def reference_ricci(grid: TestbedGrid) -> Form11M:
    """Analytic Ricci form of the reference metric (flat: 0, round: 2*sigma)."""
    if grid.kind == TORUS:
        return Form11M(grid, np.zeros(grid.spatial_shape))
    return 2.0 * reference_sigma(grid)


def cylinder_potential(grid: TestbedGrid) -> ScalarFieldP:
    """phi = l^2 / 4, the standard cylinder fiber potential."""
    l = grid.l
    vals = np.broadcast_to(0.25 * l * l, grid.p_shape).copy()
    return ScalarFieldP(grid, vals)


def cylinder(grid: TestbedGrid) -> KahlerData:
    """The reference metric times the cylinder fiber."""
    return assemble(reference_sigma(grid), cylinder_potential(grid), 0.0)


def bump(grid: TestbedGrid) -> np.ndarray:
    """The base perturbation on the spatial nodes: cos(2 pi x1) on the torus,
    exp(-v^2/4) in the radial chart."""
    if grid.kind == TORUS:
        return np.broadcast_to(np.cos(2 * np.pi * grid.x1)[:, None],
                               grid.spatial_shape).copy()
    return np.exp(-grid.v ** 2 / 4.0)


def perturbed(grid: TestbedGrid, amplitude: float) -> KahlerData:
    """The cylinder with phi += amplitude * bump * exp(-l^2)."""
    l = grid.l
    vals = amplitude * bump(grid)[..., None] * np.exp(-l * l)
    phi = cylinder_potential(grid) + ScalarFieldP(grid, vals)
    return assemble(reference_sigma(grid), phi, 0.0)


def battery_fixture(grid: TestbedGrid) -> KahlerData:
    """The identity battery's fixture: :func:`perturbed` at amplitude 0.02 on
    the torus, 0.01 in the radial chart."""
    return perturbed(grid, 0.02 if grid.kind == TORUS else 0.01)


def random_resolved_m(grid: TestbedGrid, rng, modes=3, amplitude=1.0) -> ScalarFieldM:
    """Random smooth base field: low trigonometric modes (torus) or a short
    Fourier sum in tanh(v/4) (radial), resolved at every testbed size."""
    if grid.kind == TORUS:
        x1 = grid.x1[:, None]
        x2 = grid.x2[None, :]
        vals = np.zeros(grid.spatial_shape)
        for k1 in range(-modes, modes + 1):
            for k2 in range(-modes, modes + 1):
                if k1 == 0 and k2 == 0:
                    continue
                a, b = rng.normal(size=2) / (1 + k1 * k1 + k2 * k2)
                ph = 2 * np.pi * (k1 * x1 + k2 * x2)
                vals += a * np.cos(ph) + b * np.sin(ph)
        return ScalarFieldM(grid, amplitude * vals / max(modes, 1))
    t = np.tanh(grid.v / 6.0)
    vals = np.zeros(grid.spatial_shape)
    for k in range(1, min(modes, 2) + 1):
        a, b = rng.normal(size=2) / (1 + k * k)
        vals += a * np.cos(np.pi * k * t) + b * np.sin(np.pi * k * t)
    return ScalarFieldM(grid, amplitude * vals)


FIBER_PROFILES = 4  # fiber profiles of a random invariant field


def random_profile_bases(grid: TestbedGrid, rng, modes=3) -> list[np.ndarray]:
    """The random base fields of :func:`random_resolved_p`, one per fiber
    profile.  They depend on the spatial grid only, so grids that differ in
    their fiber axis alone can share them."""
    return [random_resolved_m(grid, rng, modes=modes).values
            for _ in range(FIBER_PROFILES)]


def profiled_field(grid: TestbedGrid, bases, amplitude=1.0) -> ScalarFieldP:
    """sum_k bases[k] * profile_k(l), times ``amplitude / FIBER_PROFILES``;
    the profiles are 1, l / span, exp(-l^2) and cos(pi l / (2 span)) with
    span = max |l| over the fiber window."""
    l = grid.l
    span = max(abs(grid.l_min), abs(grid.l_max))
    profiles = [np.ones_like(l), l / span, np.exp(-l * l),
                np.cos(np.pi * l / (2 * span))]
    vals = np.zeros(grid.p_shape)
    for base, prof in zip(bases, profiles, strict=True):
        vals += base[..., None] * prof
    return ScalarFieldP(grid, amplitude * vals / FIBER_PROFILES)


def random_resolved_p(grid: TestbedGrid, rng, modes=3, amplitude=1.0) -> ScalarFieldP:
    """Random smooth invariant field with genuine fiber dependence."""
    return profiled_field(grid, random_profile_bases(grid, rng, modes),
                          amplitude)
