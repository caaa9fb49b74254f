import tracemalloc

import numpy as np
import pytest

import kredux as kx


@pytest.fixture(scope="session")
def tg():
    """Acceptance-resolution torus grid."""
    return kx.torus_grid(n=32, n_l=129)


@pytest.fixture(scope="session")
def rg():
    """Acceptance-resolution radial grid."""
    return kx.radial_grid(n_u=257, n_l=129)


@pytest.fixture(scope="session")
def cyl(tg):
    return kx.cylinder(tg)


@pytest.fixture(scope="session")
def fscyl(rg):
    return kx.cylinder(rg)


@pytest.fixture(scope="session")
def perturbed(tg):
    return kx.perturbed(tg, 0.02)


@pytest.fixture(scope="session")
def calabi_path(tg):
    sigma = kx.reference_sigma(tg)
    return kx.calabi_integrate(3e-4 * kx.bump(tg), sigma, 0.004, save_count=405)


@pytest.fixture(scope="session")
def kr_path(tg):
    sigma = kx.reference_sigma(tg)
    return kx.kr_integrate(0.01 * kx.bump(tg), sigma, 0.1, dt=2e-4,
                           save_count=101)


@pytest.fixture(scope="session")
def pc_path(tg):
    sigma = kx.reference_sigma(tg)
    return kx.pseudo_calabi_integrate(0.004 * kx.bump(tg), sigma, 0.08,
                                      dt=1e-4, save_count=201)


def _lift(path):
    shifted, a_t = kx.concavity_shift(path)
    lift = kx.legendre_lift(shifted, n_l=257)
    taus = kx.admissible_taus(shifted, lift)
    return shifted, a_t, lift, taus


@pytest.fixture(scope="session")
def calabi_lift(calabi_path):
    return _lift(calabi_path)


@pytest.fixture(scope="session")
def kr_lift(kr_path):
    return _lift(kr_path)


@pytest.fixture(scope="session")
def pc_lift(pc_path):
    return _lift(pc_path)


def traced_peak(fn, *args):
    """(result, bytes): ``fn(*args)`` and the peak of traced allocations,
    numpy buffers included, above what was allocated at its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - entry


def field_bytes(grid):
    """Bytes of one real field on the total space of ``grid``, the unit in
    which peak-memory bounds are stated."""
    return np.zeros(grid.p_shape).nbytes
