"""Time integration of the potential flows on the base manifold.

All flows evolve a potential against a fixed background form sigma:

* scalar-curvature flow (4th order):   psi' = (scal(g_psi) - lambda)/2
* coupled flow:                        solve D_psi psi' = lambda - scal, then step
* Ricci flow (unnormalized/normalized) psi' = (1/2) log(H_psi/H_sigma) [+ lambda psi]

Each flow is a velocity on raw arrays, ``velocity(h, psi)`` with psi the
potential and h = H_sigma + 2 psi_{z zbar} its metric coefficient; all flows
share one integrator: ETDRK4 on the grid's modes, which diagonalize
d^2/dz dzbar, so it takes the flow's linear part, frozen at the mean of
sigma, exactly and no stability estimate sets the step; by default it is one
step per saved sample.  Every step is checked for finiteness
(StepUnstable) and for positivity of h (PositivityLost); an optional energy
monitor, evaluated on the same (velocity, h) pair, halves the step when the
energy increases.  Every time derivative of a path, at any increasing sample
times, reads its one not-a-knot quintic spline in time (:func:`time_spline`).
Additive constants are gauge and fixed by the recorded normalization
convention; with these choices constant-scalar-curvature and Einstein
fixtures are exact fixed points of the discrete right-hand sides.  No flow
branches on the testbed: every spatial operator, the Poisson solve too, is
the grid's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import ricci_coefficient, scal_m
from .errors import (ClassNotFixed, PositivityLost, SolvabilityViolated,
                     StepUnstable)
from .fields import Form11M, ScalarFieldM, ddc_m, integrate_m, grad_pair
from .fixtures import reference_ricci
from .interp import QuinticSpline
from .reports import ResidualReport
from .statics import lambda_mean


@dataclass
class FlowPath:
    """Sampled potential path psi_t against a background sigma."""

    grid: object
    sigma: Form11M
    kind: str
    ts: np.ndarray
    psis: np.ndarray  # (n_samples, *spatial)
    normalization: dict = field(default_factory=dict)
    dt_history: list = field(default_factory=list)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.psis = np.asarray(self.psis, dtype=float)
        if self.psis.shape != (len(self.ts),) + self.grid.spatial_shape:
            raise ValueError("sample array does not match times and grid")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for k in range(len(self.ts)):
            if not (self.sigma + ddc_m(self.psis[k], self.grid)).is_positive():
                raise PositivityLost(f"sample {k} is not a Kahler potential",
                                     t=self.ts[k])

    @property
    def n_samples(self):
        return len(self.ts)

    def metric_at(self, k) -> Form11M:
        return self.sigma + ddc_m(self.psis[k], self.grid)

    @functools.cached_property
    def spline(self) -> QuinticSpline:
        """:func:`time_spline` of the path, built on first use."""
        return time_spline(self.ts, self.psis)

    def time_derivative(self, order=1):
        """d^order psi / dt^order at every sample, from :attr:`spline`."""
        return self.spline(self.ts, order)


def time_spline(ts, samples) -> QuinticSpline:
    """The quintic in time through ``samples`` (first axis indexed by ``ts``),
    the one time operator of a path: at least 6 samples, or ValueError."""
    n = len(ts)
    if n < 6:
        raise ValueError(f"time derivatives need at least 6 samples, got {n}")
    return QuinticSpline(ts, samples)


# ---------------------------------------------------------------------------
# integrator core
# ---------------------------------------------------------------------------

_ENERGY_TOL = 1e-10  # a relative energy rise beyond it halves the step
# requested steps per run (20x the 1,000 of the largest test or workload);
# an explicit step asking for more is a ValueError
MAX_FLOW_STEPS = 20_000
_MAX_HALVINGS = 10  # per run; StepUnstable past it
_SOLVABILITY_TOL = 1e-8  # largest |int (lambda - scal) dV| of the coupled flow
# upper half of the unit circle about each z = dt L, whose means give the
# ETDRK4 weights without cancellation at small z (Kassam & Trefethen 2005)
_CONTOUR = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)


def _etd_weights(lin, dt):
    """ETDRK4 weights (Cox & Matthews 2002) for the diagonal linear part
    ``lin`` at step dt: e^{dt L}, e^{dt L/2} and the phi-function means."""
    z = dt * np.asarray(lin)[..., None] + _CONTOUR
    ez = np.exp(z)
    numerators = ((np.exp(0.5 * z) - 1.0) * z * z,
                  -4.0 - z + ez * (4.0 - 3.0 * z + z * z),
                  2.0 * (2.0 + z + ez * (z - 2.0)),
                  -4.0 - 3.0 * z - z * z + ez * (4.0 - z))
    return (np.exp(dt * lin), np.exp(0.5 * dt * lin),
            *(dt * np.mean(f / z ** 3, axis=-1).real for f in numerators))


# a stage that goes non-finite is reported once, as StepUnstable on the
# candidate, rather than as a warning from each numpy operation it touches
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_etd(psi0, sigma, t_end, dt, velocity, rate, kind, save_count=33,
             energy_fn=None, normalization=None):
    """ETDRK4 for psi' = L psi + N(psi), N = velocity(h, psi) - L psi, with
    h = H_sigma + 2 psi_{z zbar} the metric coefficient of psi.

    The state is psi on the grid's modes (``grid.to_modes``), where L =
    ``rate(s)``, s the eigenvalues of H^{-1} d^2/dz dzbar at the mean of
    sigma, is diagonal and taken exactly (radial: s = 0, classical RK4);
    each stage's metric is ``grid.dzbar_dz`` of its psi.  ``dt=None`` takes
    one step per sample.  Each state is evaluated once, as the monitor probe
    and, on acceptance, the next step's first stage, whose psi is the saved
    sample.  A non-finite candidate raises StepUnstable, an h that is not
    positive everywhere PositivityLost.  An increase of
    ``energy_fn(velocity, h)`` beyond tolerance halves the step (at most
    ``_MAX_HALVINGS`` times) and retries without accepting.
    """
    grid = sigma.grid
    lin = rate(grid.ddbar_eigenvalues / float(np.mean(sigma.h)))

    def stage(state):
        psi = grid.from_modes(state)
        h = sigma.h + 2.0 * grid.dzbar_dz(psi)
        v = velocity(h, psi)
        return grid.to_modes(v) - lin * state, psi, v, h

    psi = np.array(psi0, dtype=float, copy=True)
    dt = dt if dt is not None else t_end / (save_count - 1)
    steps = t_end / dt if dt > 0 else math.inf  # dt may underflow to 0
    if steps > MAX_FLOW_STEPS:
        raise ValueError(f"flow_dt={dt:.3g} asks for {steps:.3g} steps "
                         f"to t={t_end:.3g}, more than MAX_FLOW_STEPS "
                         f"({MAX_FLOW_STEPS})")
    n_steps = max(int(np.ceil(t_end / dt - 1e-12)), 1)
    save_stride = max(n_steps // (save_count - 1), 1)
    # keep the sampling uniform: stretch step count to a multiple of the stride
    n_steps = int(np.ceil(n_steps / save_stride)) * save_stride
    dt = t_end / n_steps

    ts, samples, dt_history = [0.0], [psi], [dt]
    halvings, step, t = 0, 0, 0.0
    cand, energy_prev = grid.to_modes(psi), np.inf
    e, e2, q, f1, f2, f3 = _etd_weights(lin, dt)
    while True:
        n_cand, psi, v, h = stage(cand)
        if not np.all(h > 0.0):
            raise PositivityLost(f"metric is not positive at t={t:.3e}", t=t)
        energy = energy_fn(v, h) if energy_fn is not None else 0.0
        if energy > energy_prev + _ENERGY_TOL * (1.0 + abs(energy_prev)):
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise StepUnstable(
                    f"energy kept increasing after {_MAX_HALVINGS} halvings")
            # the candidate was step `step`; the accepted state is 2 step - 2
            dt, n_steps, step = 0.5 * dt, 2 * n_steps, 2 * step - 2
            save_stride *= 2
            dt_history.append(dt)
            e, e2, q, f1, f2, f3 = _etd_weights(lin, dt)
        else:
            state, n_u, energy_prev = cand, n_cand, energy
            if step and step % save_stride == 0:
                ts.append(t)
                samples.append(psi)
            if step == n_steps:
                break
        step += 1
        t = step * dt
        e2_state = e2 * state
        a = e2_state + q * n_u
        n_a = stage(a)[0]
        n_b = stage(e2_state + q * n_a)[0]
        n_c = stage(e2 * a + q * (2.0 * n_b - n_u))[0]
        cand = e * state + f1 * n_u + f2 * (n_a + n_b) + f3 * n_c
        if not np.all(np.isfinite(cand)):
            raise StepUnstable(f"flow step to t={t:.3e} is not finite")
    return FlowPath(grid, sigma, kind, np.array(ts), np.array(samples),
                    normalization or {}, dt_history)


# ---------------------------------------------------------------------------
# the flows
# ---------------------------------------------------------------------------


def calabi_energy(sigma: Form11M, psi_vals) -> float:
    omega = sigma + ddc_m(psi_vals, sigma.grid)
    return integrate_m((scal_m(omega).values - lambda_mean(sigma)) ** 2, omega)


def calabi_integrate(psi0, sigma: Form11M, t_end: float, dt: float | None = None,
                     save_count=33) -> FlowPath:
    """Scalar-curvature flow of the potential: psi' = (scal - lambda)/2.

    The flow energy int (scal - lambda)^2 dV is monitored every step; an
    increase beyond tolerance halves the step (at most ten times).
    """
    grid = sigma.grid
    lam = lambda_mean(sigma)
    weights = grid.spatial_quad_weights

    def velocity(h, psi):
        return 0.5 * (ricci_coefficient(grid, h) / h - lam)

    def energy_fn(velocity, h):
        # 2 * velocity = scal - lambda
        return float(np.sum((2.0 * velocity) ** 2 * h * weights))

    return _run_etd(psi0, sigma, t_end, dt, velocity, lambda s: -s * s,
                    "calabi", save_count=save_count, energy_fn=energy_fn,
                    normalization={"convention": "psi' = (scal - lambda)/2",
                                   "lambda": lam})


def pseudo_calabi_integrate(psi0, sigma: Form11M, t_end: float,
                            dt: float | None = None, save_count=33) -> FlowPath:
    """Coupled flow: at each stage solve D_psi v = lambda - scal(g_psi) for the
    mean-zero velocity v and step psi by it."""
    grid = sigma.grid
    lam = lambda_mean(sigma)
    weights = grid.spatial_quad_weights

    def velocity(h, psi):
        target = lam - ricci_coefficient(grid, h) / h
        compat = float(np.sum(target * h * weights))
        if abs(compat) > _SOLVABILITY_TOL:
            raise SolvabilityViolated(
                f"int (lambda - scal) dV = {compat:.3e} is not zero")
        # H^{-1} f_{z zbar} = target
        return grid.solve_dzbar_dz(target * h)

    return _run_etd(psi0, sigma, t_end, dt, velocity, lambda s: 2.0 * s,
                    "pseudo_calabi", save_count=save_count,
                    normalization={"convention": "mean-zero velocity",
                                   "lambda": lam})


def kr_integrate(psi0, sigma: Form11M, t_end: float, dt: float | None = None,
                 normalized=False, save_count=33) -> FlowPath:
    """Ricci flow of the potential.

    Unnormalized mode requires a base whose reference Ricci form vanishes,
    c1(M) = 0 (the class must not move); normalized mode adds +lambda psi
    and keeps Einstein fixtures fixed.  The velocity is taken mean-zero.
    """
    if not normalized and np.any(reference_ricci(sigma.grid).h):
        raise ClassNotFixed(
            "unnormalized Ricci flow moves the class off the torus testbed")
    lam = lambda_mean(sigma) if normalized else 0.0

    def velocity(h, psi):
        v = 0.5 * np.log(h / sigma.h)
        if normalized:
            v = v + lam * psi
        return v - np.mean(v)

    kind = "nkr" if normalized else "kr"
    return _run_etd(psi0, sigma, t_end, dt, velocity, lambda s: s, kind,
                    save_count=save_count,
                    normalization={"convention": "mean-zero velocity",
                                   "normalized": normalized, "lambda": lam})


def kr_time_map(a: float, b: float, lam: float, t):
    """Level reparametrization of the normalized Ricci flow:
    tau(t) = (a + b e^{lam t})/lam, with d tau/dt = b e^{lam t}."""
    if lam == 0:
        raise ValueError("lam must be nonzero; use the unnormalized mode instead")
    return (a + b * np.exp(lam * np.asarray(t, dtype=float))) / lam


# ---------------------------------------------------------------------------
# geodesic residuals of a path
# ---------------------------------------------------------------------------


def geodesic_residual_path(path: FlowPath) -> ResidualReport:
    """Residual  psi'' - |grad psi'|^2  of the potential-geodesic equation
    along a sampled path, with the gradient taken in the metric of psi.

    The path is a geodesic up to normalization exactly when the residual is
    spatially constant, so the reported norms are of the deviation from the
    spatial mean at interior times.
    """
    grid = path.grid
    d1 = path.time_derivative(1)
    d2 = path.time_derivative(2)
    ks = range(2, path.n_samples - 2)
    mask = grid.interior_m()

    dev_sup = 0.0
    dev_sq = []
    by_t = []
    means = []
    for k in ks:
        vk = ScalarFieldM(grid, d1[k])
        r = d2[k] - grad_pair(vk, vk, path.metric_at(k)).values
        mean_k = float(np.mean(r[mask]))
        dev = np.abs(r - mean_k)[mask]
        dev_sup = max(dev_sup, float(np.max(dev)))
        dev_sq.append(np.mean(dev * dev))
        by_t.append([float(path.ts[k]), float(np.max(dev))])
        means.append(mean_k)
    rep = ResidualReport("geodesic_path", grid.meta(), dev_sup,
                         float(np.sqrt(np.mean(dev_sq))), reduced_by_tau=by_t)
    rep.extra["residual_mean_by_t"] = means
    return rep
