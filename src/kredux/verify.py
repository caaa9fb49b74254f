"""The identity battery: convention gate, gauge moves, closed-form reductions
and the reduced-quantity identities, with refinement slopes.

Shared by the command-line ``verify`` driver and the acceptance suite.
Every fixture, the battery's too, comes from :mod:`kredux.fixtures`.

A battery pass takes each fiber derivative once.  The slope d_l f of its
test field serves every check that differentiates f (``ma_reduced`` shares
the slope of 0.3 f within itself), and is released before the descending
forms, where the pass peaks.  Those forms and the moment-Ricci report come
from one fresh Ricci form (``descending_forms``).  The structure reads
d_l mu off |V|^2 for dd^c mu, and keeps one slope of log|V|, from which
the drift and each pass's dd^c log|V| are built.
The fine and coarse passes share their random input: the coarse fiber
nodes are the fine ones at even indices, bit for bit, so one draw of the
test field's base fields serves both, and each pass builds its own f.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curvature import descending_forms, laplacian_m, ricci_m
from .fields import ScalarFieldM, ScalarFieldP, ddc_p, grad_pair
from .fixtures import (battery_fixture, cylinder, profiled_field,
                       random_profile_bases, random_resolved_m)
from .grids import TestbedGrid, torus_grid
from .reduction import (check_dcred, check_dertau, default_taus, laplace_reduced,
                        ma_reduced, merge_levels, reduce_form,
                        reduce_scalar, reduced_potentials)
from .reports import ResidualReport, attach_slope
from .structure import KahlerData, gauge


GATE_RANDOM_FIELDS = 3  # random base fields in part (c) of the gate
BATTERY_LEVELS = 3  # levels per battery pass


def convention_gate(grid: TestbedGrid | None = None, seed=0) -> ResidualReport:
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
    K = cylinder(grid)

    ell = ScalarFieldP(grid, np.broadcast_to(grid.l, grid.p_shape).copy())
    ddc_ell = ddc_p(ell)
    part_a = grid.interior_norms(ddc_ell.max_magnitude())[0]

    vv = 2.0 * K.omega.g22  # i_{JV} i_V omega
    part_b = grid.interior_norms(vv - K.vsq.values)[0]
    part_b = max(part_b, grid.interior_norms(vv - 2.0)[0])
    positive = float(np.min(grid.interior(vv)))

    # amplitude/mode budget keeps e^f itself spectrally resolved
    part_c = 0.0
    for _ in range(GATE_RANDOM_FIELDS):
        f = random_resolved_m(grid, rng, modes=2, amplitude=0.15)
        ef = ScalarFieldM(grid, np.exp(f.values))
        lhs = laplacian_m(ef, K.sigma).values
        rhs = ef.values * (laplacian_m(f, K.sigma).values
                           + 0.5 * grad_pair(f, f, K.sigma).values)
        part_c = max(part_c, grid.interior_norms(lhs - rhs)[0])

    linf = max(part_a, part_b, part_c)
    rep = ResidualReport("convention_gate", grid.meta(), linf, linf)
    rep.extra = {"ddc_log_fiber": part_a, "double_contraction": part_b,
                 "exp_laplacian": part_c, "min_vv": positive}
    if positive <= 0:
        rep.linf = float("inf")
    return rep


def gauge_invariance(K: KahlerData, seed=0) -> ResidualReport:
    """Transformed triples of ``K`` must reproduce omega and mu pointwise."""
    grid = K.grid
    rng = np.random.default_rng(seed)
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
    K = cylinder(grid)
    worst = max(float(np.max(np.abs(K.mu.values + grid.l))),
                float(np.max(np.abs(K.vsq.values - 2.0))))
    by_tau = []
    taus = default_taus(K, count=9, shrink=0.15)
    for tau, red in zip(taus, reduced_potentials(K, taus)):
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


def battery_bases(grid: TestbedGrid, seed=0) -> list[np.ndarray]:
    """The random base fields of the battery's test field, drawn from
    ``seed``; they serve every grid with ``grid``'s spatial nodes."""
    return random_profile_bases(grid, np.random.default_rng(seed))


def battery_once(K: KahlerData, seed=0, dtau=1e-4, bases=None) -> dict:
    """One pass of the reduced-identity battery on ``K``.

    The test field f is built on ``K``'s grid from ``bases``, which
    default to :func:`battery_bases` of ``seed``.  Its fiber slope d_l f is
    taken once and serves ``check_dertau``, ``check_dcred`` and
    ``laplace_reduced``; f and its slope are released before the
    descending forms, where the pass peaks: that peak holds ``K``'s kept
    geometry, the descending scalar and the descending Ricci form as it is
    built.  The moment-Ricci report is read off the same fresh Ricci form
    first, and stored after the descent reports, which keeps the reports'
    order.
    """
    grid = K.grid
    if bases is None:
        bases = battery_bases(grid, seed)
    f = profiled_field(grid, bases, amplitude=0.3)
    taus = default_taus(K, count=BATTERY_LEVELS, shrink=0.3)

    dl_f = grid.d_l(f.values, 1)
    out = {"dertau": check_dertau(K, f, taus, dtau, dl_f=dl_f),
           "dcred": check_dcred(K, f, taus, dl_f=dl_f),
           "ma_reduced": ma_reduced(K, 0.3 * f, taus),
           "laplace_reduced": laplace_reduced(K, f, taus, dl_f=dl_f)}
    del f, dl_f

    rho, big_r, moment_ricci = descending_forms(K, identity=True)
    ric_gaps, scal_gaps, leftovers = [], [], []
    for red in reduced_potentials(K, taus):
        rho_tau, leftover = reduce_form(rho, red.level)
        leftovers.append(leftover)
        ric = ricci_m(red.omega_tau)
        ric_gaps.append(rho_tau.h - ric.h)
        # scal_m(omega_tau), without computing its Ricci form again
        scal_gaps.append(reduce_scalar(big_r, red.level).values
                         - ric.h / red.omega_tau.h)
    out["ricci_descent"] = merge_levels("ricci_descent", grid, taus, ric_gaps)
    # reported, not gated: how far the descending form is from reducible
    out["ricci_descent"].extra["angular_leftover"] = max(leftovers)
    out["scal_descent"] = merge_levels("scal_descent", grid, taus, scal_gaps)
    out["moment_ricci"] = moment_ricci
    return out


def battery_with_slopes(K: KahlerData, seed=0, dtau=1e-4) -> dict:
    """Battery on the randomized fixture ``K``, with the observed order
    measured against ``battery_fixture`` on the fiber-halved grid (and
    doubled derivative step).

    ``K``'s grid is the fine point of the pair: refining beyond it
    would push truncation below the stencil roundoff floor, which grows like
    the squared fiber resolution, and the measured order would say nothing.
    """
    grid = K.grid
    half = (grid.n_l + 1) // 2
    if half < 9 or half <= 2 * grid.margin:
        return battery_once(K, seed=seed, dtau=dtau)
    # the two grids share their spatial nodes, so one draw of the test
    # field's base fields serves both; each pass builds its own f from them
    bases = battery_bases(grid, seed)
    # coarse first: the fine pass fills K's cache, which would stay alive
    # beside the coarse fixture
    coarse = battery_once(battery_fixture(replace(grid, n_l=half)),
                          seed=seed, dtau=2.0 * dtau, bases=bases)
    fine = battery_once(K, seed=seed, dtau=dtau, bases=bases)
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
        "closed_form_reductions": closed_form_reductions(grid),
    }
    # built after the cylinder checks, so never alive beside their fixtures
    K = battery_fixture(grid)
    reports["gauge_invariance"] = gauge_invariance(K, seed=seed)
    reports.update(battery_with_slopes(K, seed=seed, dtau=dtau))
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
