"""The identity battery: convention gate, gauge moves, closed-form reductions
and the reduced-quantity identities, with refinement slopes.

Shared by the command-line ``verify`` driver and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curvature import (check_moment_ricci_identity, descending_ricci,
                        descending_scalar, laplacian_m, ricci_m, scal_m)
from .fields import (ScalarFieldM, ScalarFieldP, contract_v, ddc_p, grad_pair,
                     interior_norms, jv_apply)
from .fixtures import (flat_cylinder, fs_cylinder, perturbed_cylinder,
                       perturbed_fs_cylinder, random_resolved_m,
                       random_resolved_p)
from .grids import TORUS, TestbedGrid, torus_grid
from .reduction import (check_dcred, check_dertau, default_taus, laplace_reduced,
                        ma_reduced, merge_levels, reduce_form,
                        reduce_scalar, reduced_potential)
from .reports import ResidualReport, attach_slope
from .structure import gauge


def _battery_fixture(grid: TestbedGrid):
    if grid.kind == TORUS:
        return perturbed_cylinder(grid, amplitude=0.02)
    return perturbed_fs_cylinder(grid, amplitude=0.01)


def convention_gate(grid: TestbedGrid | None = None, seed=0,
                    n_random=3) -> ResidualReport:
    """The sign-fixing self-test.

    (a) dd^c of the log-fiber coordinate vanishes identically,
    (b) the double contraction of omega with the action generators equals
        JV(mu) (= 2 on the cylinder fixtures) and is positive,
    (c) the exponential Laplacian identity holds for random resolved base
        fields.  Exactly one global sign assignment in the calculus passes
        all three; it is frozen in :mod:`kredux.fields`.
    """
    grid = grid or torus_grid(n_l=65)
    rng = np.random.default_rng(seed)
    K = flat_cylinder(grid) if grid.kind == TORUS else fs_cylinder(grid)
    mask_p = grid.interior_p()

    ell = ScalarFieldP(grid, np.broadcast_to(grid.l, grid.p_shape).copy())
    ddc_ell = ddc_p(ell)
    part_a = interior_norms(np.maximum.reduce(ddc_ell.component_magnitudes()),
                            mask_p)[0]

    cv = contract_v(K.omega)
    jv_mu = jv_apply(K.mu)
    part_b = interior_norms(cv.vv - jv_mu.values, mask_p)[0]
    part_b = max(part_b, interior_norms(cv.vv - 2.0, mask_p)[0])
    positive = float(np.min(cv.vv[mask_p]))

    # amplitude/mode budget keeps e^f itself spectrally resolved
    part_c = 0.0
    mask_m = grid.interior_m()
    for _ in range(n_random):
        f = random_resolved_m(grid, rng, modes=2, amplitude=0.15)
        ef = ScalarFieldM(grid, np.exp(f.values))
        lhs = laplacian_m(ef, K.sigma).values
        rhs = ef.values * (laplacian_m(f, K.sigma).values
                           + 0.5 * grad_pair(f, f, K.sigma).values)
        part_c = max(part_c, interior_norms(lhs - rhs, mask_m)[0])

    linf = max(part_a, part_b, part_c)
    rep = ResidualReport("convention_gate", grid.meta(), linf, linf)
    rep.extra = {"ddc_log_fiber": part_a, "double_contraction": part_b,
                 "exp_laplacian": part_c, "min_vv": positive}
    if positive <= 0:
        rep.linf = float("inf")
    return rep


def gauge_invariance(grid: TestbedGrid | None = None, seed=0) -> ResidualReport:
    """Transformed triples must reproduce omega and mu pointwise."""
    grid = grid or torus_grid()
    rng = np.random.default_rng(seed)
    K = _battery_fixture(grid)
    u = random_resolved_m(grid, rng, modes=2, amplitude=0.002)
    worst = 0.0
    for b, c_t in ((5.0, K.c), (0.0, K.c), (1.3, 1.0)):
        Kt = gauge(K, u, b, c_t)
        for da, db in ((Kt.omega.g11, K.omega.g11),
                       (Kt.omega.g22, K.omega.g22)):
            worst = max(worst, float(np.max(np.abs(da - db))))
        worst = max(worst, float(np.max(np.abs(Kt.omega.g12 - K.omega.g12))))
        worst = max(worst, float(np.max(np.abs(Kt.mu.values - K.mu.values))))
    return ResidualReport("gauge_invariance", grid.meta(), worst, worst)


def closed_form_reductions(grid: TestbedGrid | None = None) -> ResidualReport:
    """Cylinder fixture closed forms: mu = -l, |V|^2 = 2, psi_tau = -tau^2/4,
    omega_tau = sigma, for every admissible tau."""
    grid = grid or torus_grid()
    K = flat_cylinder(grid) if grid.kind == TORUS else fs_cylinder(grid)
    worst = max(float(np.max(np.abs(K.mu.values + grid.l))),
                float(np.max(np.abs(K.vsq.values - 2.0))))
    by_tau = []
    for tau in default_taus(K, count=9, shrink=0.15):
        red = reduced_potential(K, tau)
        g1 = float(np.max(np.abs(red.psi_tau.values + tau * tau / 4.0)))
        g2 = float(np.max(np.abs(red.omega_tau.h - K.sigma.h)))
        g3 = float(np.max(np.abs(red.l_tau.values + tau)))
        by_tau.append([float(tau), max(g1, g2, g3)])
        worst = max(worst, g1, g2, g3)
    return ResidualReport("closed_form_reductions", grid.meta(), worst, worst,
                          reduced_by_tau=by_tau)


# ---------------------------------------------------------------------------
# randomized identity battery
# ---------------------------------------------------------------------------


def battery_once(grid: TestbedGrid, seed=0, dtau=1e-4, n_taus=3) -> dict:
    """One pass of the reduced-identity battery on the randomized fixture."""
    rng = np.random.default_rng(seed)
    K = _battery_fixture(grid)
    f = random_resolved_p(grid, rng, amplitude=0.3)
    taus = default_taus(K, count=n_taus, shrink=0.3)

    out = {"dertau": check_dertau(K, f, taus, dtau),
           "dcred": check_dcred(K, f, taus),
           "ma_reduced": ma_reduced(K, 0.3 * f, taus),
           "laplace_reduced": laplace_reduced(K, f, taus)}

    rho = descending_ricci(K)
    big_r = descending_scalar(K)
    mask = grid.interior_m()
    ric_norms, scal_norms, leftovers = [], [], []
    for tau in taus:
        red = reduced_potential(K, tau)
        rho_tau, leftover = reduce_form(rho, red.level)
        leftovers.append(leftover)
        gap_ric = np.abs(rho_tau.h - ricci_m(red.omega_tau).h)
        ric_norms.append(interior_norms(gap_ric, mask))
        gap_scal = np.abs(reduce_scalar(big_r, red.level).values
                          - scal_m(red.omega_tau).values)
        scal_norms.append(interior_norms(gap_scal, mask))
    out["ricci_descent"] = merge_levels("ricci_descent", grid, taus, ric_norms)
    # reported, not gated: how far the descending form is from reducible
    out["ricci_descent"].extra["angular_leftover"] = max(leftovers)
    out["scal_descent"] = merge_levels("scal_descent", grid, taus, scal_norms)
    out["moment_ricci"] = check_moment_ricci_identity(K)
    return out


def battery_with_slopes(grid: TestbedGrid, seed=0, dtau=1e-4) -> dict:
    """Battery at the configured resolution, with the observed order measured
    against the fiber-halved grid (and doubled derivative step).

    The configured grid is the fine point of the pair: refining beyond it
    would push truncation below the stencil roundoff floor, which grows like
    the squared fiber resolution, and the measured order would say nothing.
    """
    half = (grid.n_l + 1) // 2
    fine = battery_once(grid, seed=seed, dtau=dtau)
    if half < 9 or half <= 2 * grid.margin:
        return fine
    coarse = battery_once(replace(grid, n_l=half), seed=seed, dtau=2.0 * dtau)
    return {name: attach_slope(coarse[name], fine[name]) for name in fine}


# ---------------------------------------------------------------------------
# full verify pass
# ---------------------------------------------------------------------------

BATTERY_THRESHOLD = 1e-5
SLOPE_THRESHOLD = 2.0
SLOPE_FLOOR = 1e-9  # below this the fine error is roundoff; slope is meaningless

THRESHOLDS = {
    "convention_gate": 1e-8,
    "gauge_invariance": 1e-10,
    "closed_form_reductions": 1e-9,
}


def run_verify(grid: TestbedGrid, seed=0, dtau=1e-4):
    """All checks; returns (reports, failures) with failures ordered by name."""
    reports = {
        "convention_gate": convention_gate(
            replace(grid, n_l=min(grid.n_l, 65)), seed=seed),
        "gauge_invariance": gauge_invariance(grid, seed=seed),
        "closed_form_reductions": closed_form_reductions(grid),
    }
    reports.update(battery_with_slopes(grid, seed=seed, dtau=dtau))
    failures = []
    for name in sorted(reports):
        rep = reports[name]
        limit = THRESHOLDS.get(name, BATTERY_THRESHOLD)
        if not rep.linf < limit:
            failures.append(f"{name}: linf {rep.linf:.3e} >= {limit:g}")
        if rep.slope is not None and rep.linf > SLOPE_FLOOR \
                and rep.slope < SLOPE_THRESHOLD:
            failures.append(f"{name}: observed order {rep.slope:.2f} < 2")
    return reports, failures
