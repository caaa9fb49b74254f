"""The curvature quantities upstairs that descend to every reduction.

There is a 2-form rho and a scalar R on the total space whose reductions
are, at every level, the Ricci form and the scalar curvature of the reduced
metric.  This script verifies the descent on the perturbed cylinder and
shows the contraction identity tying the Ricci form to the moment map.
"""

import numpy as np

import kredux as kx
from kredux.curvature import ricci_m, scal_m

grid = kx.torus_grid(n=16, n_l=129)
K = kx.perturbed(grid, 0.02)
mask = grid.interior_m()

rho = kx.descending_ricci(K)
big_r = kx.descending_scalar(K)

print("descent of curvature quantities (perturbed cylinder):")
for tau in (-0.4, 0.0, 0.4):
    level = kx.level_set(K, tau)
    red = kx.reduced_potential(K, tau)
    rho_tau, angular = kx.reduce_form(rho, level)
    ric_gap = np.max(np.abs(rho_tau.h - ricci_m(red.omega_tau).h)[mask])
    scal_gap = np.max(np.abs(kx.reduce_scalar(big_r, level).values
                             - scal_m(red.omega_tau).values)[mask])
    print(f"  tau = {tau:+.1f}: Ricci gap {ric_gap:.2e}, "
          f"scalar gap {scal_gap:.2e}, angular leftover {angular:.2e}")

rep = kx.check_moment_ricci_identity(K)
print(f"\ncontraction identity i_V Ric + d(Laplacian of mu) = 0: {rep.linf:.2e}")

print("\nscalar integral is a class invariant (independent of the level):")
vals = []
for tau in (-0.4, 0.0, 0.4):
    red = kx.reduced_potential(K, tau)
    vals.append(kx.integrate_m(scal_m(red.omega_tau), red.omega_tau))
    print(f"  tau = {tau:+.1f}: integral scal dV = {vals[-1]:+.3e}")
print(f"  spread: {max(vals) - min(vals):.2e}")
