"""Time integration of the potential flows on the base.

Constant-curvature data are exact fixed points of the discrete right-hand
sides, so stationarity holds to machine zero; perturbed data decay with the
expected monotone quantities (flow energy, curvature sup) while the volume
stays pinned to the class.
"""

import numpy as np

import kredux as kx
from kredux.curvature import ricci_m, scal_m

grid = kx.torus_grid(n=16, n_l=33)
sigma = kx.reference_sigma(grid)
zero = np.zeros(grid.spatial_shape)

path = kx.calabi_integrate(zero, sigma, 0.01, dt=1e-4)
print(f"flat torus under the scalar-curvature flow: drift "
      f"{np.max(np.abs(path.psis[-1])):.1e} over t = 0.01")

psi0 = 0.01 * np.cos(2 * np.pi * grid.x1)[:, None] * np.ones((1, grid.n_spatial))
kr = kx.kr_integrate(psi0, sigma, 0.1, dt=5e-4, save_count=21)
rics = [np.max(np.abs(ricci_m(kr.metric_at(k)).h)) for k in range(kr.n_samples)]
vols = [kx.integrate_m(np.ones(grid.spatial_shape), kr.metric_at(k))
        for k in range(kr.n_samples)]
print(f"\nRicci flow from a cosine bump ({kr.n_samples} samples to t = 0.1):")
print(f"  curvature sup: {rics[0]:.3f} -> {rics[-1]:.3f} "
      f"(monotone: {all(b <= a + 1e-14 for a, b in zip(rics, rics[1:]))})")
print(f"  volume drift : {max(abs(v - vols[0]) for v in vols):.1e}")

cal = kx.calabi_integrate(0.001 * np.cos(2 * np.pi * grid.x1)[:, None]
                          * np.ones((1, grid.n_spatial)), sigma, 0.002,
                          save_count=21)
es = [kx.calabi_energy(sigma, cal.psis[k]) for k in range(cal.n_samples)]
print(f"\nscalar-curvature flow from a small bump "
      f"({cal.n_samples} samples, dt = {cal.dt_history[0]:.2e}):")
print(f"  flow energy : {es[0]:.3e} -> {es[-1]:.3e} "
      f"(non-increasing: {all(b <= a + 1e-15 for a, b in zip(es, es[1:]))})")

pc = kx.pseudo_calabi_integrate(psi0, sigma, 0.05, dt=2e-4, save_count=11)
sups = [np.max(np.abs(scal_m(pc.metric_at(k)).values)) for k in (0, pc.n_samples - 1)]
print(f"\ncoupled flow: curvature sup {sups[0]:.3f} -> {sups[1]:.3f}")

print(f"\nlevel map of the normalized Ricci flow: tau(1) at (a,b,lam)=(0,2,2) "
      f"is {kx.kr_time_map(0, 2, 2, 1.0):.6f} (= e^2)")
