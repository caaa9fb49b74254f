"""Time integration of the potential flows on the base manifold.

All flows evolve a potential against a fixed background form sigma:

* scalar-curvature flow (4th order):   psi' = (scal(g_psi) - lambda)/2
* coupled flow:                        solve D_psi psi' = lambda - scal, then step
* Ricci flow (unnormalized/normalized) psi' = (1/2) log(H_psi/H_sigma) [+ lambda psi]

Each flow is a right-hand side on raw arrays, ``rhs(psi) -> (velocity, h)``
with h = H_sigma + 2 psi_{z zbar} the metric coefficient of psi, and all flows
share one integrator: explicit RK4 at desk scale with a stability-derived
default step.  Every step is checked for finiteness (StepUnstable) and for
positivity of h (PositivityLost); an optional energy monitor, evaluated on
the same (velocity, h) pair, halves the step when the energy increases.
Additive constants are gauge and fixed by the recorded normalization
convention; with these choices constant-scalar-curvature and Einstein
fixtures are exact fixed points of the discrete right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import ricci_coefficient, scal_m
from .errors import (ClassNotFixed, PositivityLost, SolvabilityViolated,
                     StepUnstable)
from .fields import Form11M, ScalarFieldM, ddc_m, integrate_m, grad_pair
from .grids import TORUS, fd_apply
from .interp import FiberInterp
from .reports import ResidualReport
from .statics import lambda_mean


@dataclass
class FlowPath:
    """Uniformly sampled potential path psi_t against a background sigma."""

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

    def time_derivative(self, order=1):
        """d^order psi / dt^order at every sample (see :func:`time_derivative`)."""
        return time_derivative(self.ts, self.psis, order)


def time_derivative(ts, samples, order):
    """d^order/dt^order of ``samples`` (first axis indexed by ``ts``), by the
    4th-order stencils of :func:`~kredux.grids.fd_apply`.

    The samples must be at least 6 and uniform in time; ValueError otherwise.
    """
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    if n < 6:
        raise ValueError(f"time derivatives need at least 6 samples, got {n}")
    h = (ts[-1] - ts[0]) / (n - 1)
    if np.max(np.abs(np.diff(ts) - h)) > 1e-8 * abs(h):
        raise ValueError("time derivatives need samples uniform in time")
    return fd_apply(samples, 0, order, h, n)


# ---------------------------------------------------------------------------
# stability estimates
# ---------------------------------------------------------------------------

_RK4_REAL_AXIS = 2.785
_SAFETY = 0.9  # stable_dt's share of the RK4 real-axis stability limit
_ENERGY_TOL = 1e-10  # a relative energy rise beyond it halves the step
_MAX_HALVINGS = 10  # per run; StepUnstable past it
_SOLVABILITY_TOL = 1e-8  # largest |int (lambda - scal) dV| of the coupled flow


def _laplacian_symbol_max(sigma: Form11M) -> float:
    grid = sigma.grid
    if grid.kind == TORUS:
        n = grid.n_spatial
        return (np.pi ** 2) * n * n / (2.0 * float(np.min(sigma.h)))
    stencil_max = 16.0 / (3.0 * grid.h_v ** 2)
    return float(np.max(stencil_max / (grid.u * sigma.h)))


def stable_dt(sigma: Form11M, kind: str) -> float:
    lap = _laplacian_symbol_max(sigma)
    rate = {"calabi": lap * lap, "pseudo_calabi": 2.0 * lap,
            "kr": lap, "nkr": lap}[kind]
    return _SAFETY * _RK4_REAL_AXIS / rate


# ---------------------------------------------------------------------------
# integrator core
# ---------------------------------------------------------------------------


# a stage that goes non-finite is reported once, as StepUnstable on the
# candidate, rather than as a warning from each numpy operation it touches
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_rk4(psi0, sigma, t_end, dt, rhs, kind, save_count=33,
             energy_fn=None, normalization=None):
    """Fixed-step RK4 with finiteness, positivity and energy monitoring.

    ``rhs(psi)`` returns ``(velocity, h)``, h the metric coefficient of psi.
    Each candidate state is evaluated once: that evaluation is the monitor
    probe and, on acceptance, the next step's first stage.  A non-finite
    candidate raises StepUnstable and an h that is not positive everywhere
    raises PositivityLost.  An increase of ``energy_fn(velocity, h)`` beyond
    tolerance halves the step (at most ``_MAX_HALVINGS`` times) and retries
    without accepting.
    """

    def probe(state, t):
        velocity, h = rhs(state)
        if not np.all(h > 0.0):
            raise PositivityLost(f"metric is not positive at t={t:.3e}", t=t)
        return velocity, h

    psi = np.array(psi0, dtype=float, copy=True)
    n_steps = max(int(np.ceil(t_end / dt - 1e-12)), 1)
    dt = t_end / n_steps
    save_stride = max(n_steps // (save_count - 1), 1)
    # keep the sampling uniform: stretch step count to a multiple of the stride
    n_steps = int(np.ceil(n_steps / save_stride)) * save_stride
    dt = t_end / n_steps

    ts = [0.0]
    samples = [psi.copy()]
    dt_history = [dt]
    halvings = 0
    t = 0.0
    step = 0
    k1, h = probe(psi, t)
    energy_prev = energy_fn(k1, h) if energy_fn is not None else None
    while step < n_steps:
        k2 = rhs(psi + 0.5 * dt * k1)[0]
        k3 = rhs(psi + 0.5 * dt * k2)[0]
        k4 = rhs(psi + dt * k3)[0]
        cand = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(cand)):
            raise StepUnstable(f"flow step to t={t + dt:.3e} is not finite")
        k1_cand, h_cand = probe(cand, t + dt)
        if energy_fn is not None:
            e = energy_fn(k1_cand, h_cand)
            if e > energy_prev + _ENERGY_TOL * (1.0 + abs(energy_prev)):
                halvings += 1
                if halvings > _MAX_HALVINGS:
                    raise StepUnstable(
                        f"energy kept increasing after {_MAX_HALVINGS} halvings")
                dt *= 0.5
                n_steps = 2 * n_steps
                step = 2 * step
                save_stride = 2 * save_stride
                dt_history.append(dt)
                continue
            energy_prev = e
        psi = cand
        k1 = k1_cand
        step += 1
        t = step * dt
        if step % save_stride == 0:
            ts.append(t)
            samples.append(psi.copy())
    return FlowPath(sigma.grid, sigma, kind, np.array(ts), np.array(samples),
                    normalization or {}, dt_history)


# ---------------------------------------------------------------------------
# the flows
# ---------------------------------------------------------------------------


def _potential_values(psi):
    return np.asarray(psi.values if isinstance(psi, ScalarFieldM) else psi,
                      dtype=float)


def _metric_coefficient(sigma: Form11M, psi):
    """Metric coefficient of sigma + dd^c psi: H_sigma + 2 psi_{z zbar}."""
    return sigma.h + 2.0 * sigma.grid.dzbar_dz(psi)


def calabi_energy(sigma: Form11M, psi_vals) -> float:
    grid = sigma.grid
    omega = sigma + ddc_m(psi_vals, grid)
    lam = lambda_mean(sigma)
    s = scal_m(omega)
    return integrate_m((s.values - lam) ** 2, omega)


def calabi_integrate(psi0, sigma: Form11M, t_end: float, dt: float | None = None,
                     save_count=33) -> FlowPath:
    """Scalar-curvature flow of the potential: psi' = (scal - lambda)/2.

    The flow energy int (scal - lambda)^2 dV is monitored every step; an
    increase beyond tolerance halves the step (at most ten times).
    """
    grid = sigma.grid
    lam = lambda_mean(sigma)
    weights = grid.spatial_quad_weights
    dt = dt if dt is not None else stable_dt(sigma, "calabi")

    def rhs(psi):
        h = _metric_coefficient(sigma, psi)
        return 0.5 * (ricci_coefficient(grid, h) / h - lam), h

    def energy_fn(velocity, h):
        # 2 * velocity = scal - lambda
        return float(np.sum((2.0 * velocity) ** 2 * h * weights))

    return _run_rk4(_potential_values(psi0), sigma, t_end, dt, rhs, "calabi",
                    save_count=save_count, energy_fn=energy_fn,
                    normalization={"convention": "psi' = (scal - lambda)/2",
                                   "lambda": lam})


def _poisson_solve(grid, h, rhs_vals):
    """Solve H^{-1} f_{z zbar} = rhs with zero mean for the metric coefficient h."""
    target = rhs_vals * h  # f_{z zbar} = H * rhs
    if grid.kind == TORUS:
        sym = grid.ddbar_symbol.copy()
        sym[0, 0] = 1.0
        fhat = np.fft.rfft2(target) / sym
        fhat[0, 0] = 0.0
        out = np.fft.irfft2(fhat, s=grid.spatial_shape)
        return out - np.mean(out)
    # radial: f_vv = u * H * rhs, two antiderivatives on the uniform v axis,
    # Neumann ends
    a1 = FiberInterp(grid.v, grid.u * target).antiderivative()
    out = FiberInterp(grid.v, a1).antiderivative()
    w = grid.spatial_quad_weights / (np.pi * grid.u)
    return out - np.sum(out * w) / np.sum(w)


def pseudo_calabi_integrate(psi0, sigma: Form11M, t_end: float,
                            dt: float | None = None, save_count=33) -> FlowPath:
    """Coupled flow: at each stage solve D_psi v = lambda - scal(g_psi) for the
    mean-zero velocity v and step psi by it."""
    grid = sigma.grid
    lam = lambda_mean(sigma)
    weights = grid.spatial_quad_weights
    dt = dt if dt is not None else stable_dt(sigma, "pseudo_calabi")

    def rhs(psi):
        h = _metric_coefficient(sigma, psi)
        target = lam - ricci_coefficient(grid, h) / h
        compat = float(np.sum(target * h * weights))
        if abs(compat) > _SOLVABILITY_TOL:
            raise SolvabilityViolated(
                f"int (lambda - scal) dV = {compat:.3e} is not zero")
        return _poisson_solve(grid, h, target), h

    return _run_rk4(_potential_values(psi0), sigma, t_end, dt, rhs,
                    "pseudo_calabi", save_count=save_count,
                    normalization={"convention": "mean-zero velocity",
                                   "lambda": lam})


def kr_integrate(psi0, sigma: Form11M, t_end: float, dt: float | None = None,
                 normalized=False, lam: float | None = None,
                 save_count=33) -> FlowPath:
    """Ricci flow of the potential.

    Unnormalized mode requires the flat-class torus testbed (the class must
    not move); normalized mode adds +lambda psi and keeps Einstein fixtures
    fixed.  The velocity is taken mean-zero.
    """
    grid = sigma.grid
    if not normalized and grid.kind != TORUS:
        raise ClassNotFixed(
            "unnormalized Ricci flow moves the class off the torus testbed")
    if lam is None:
        lam = lambda_mean(sigma) if normalized else 0.0
    dt = dt if dt is not None else stable_dt(sigma, "kr")

    def rhs(psi):
        h = _metric_coefficient(sigma, psi)
        v = 0.5 * np.log(h / sigma.h)
        if normalized:
            v = v + lam * psi
        return v - np.mean(v), h

    kind = "nkr" if normalized else "kr"
    return _run_rk4(_potential_values(psi0), sigma, t_end, dt, rhs, kind,
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
