"""Level sets, reduced potentials, and the reduced-quantity identities.

Reducing at a level tau means solving mu(x, l) = tau along each fiber and
evaluating fields there.  The reduced Kahler form is sigma + dd^c psi_tau
for the reduced potential psi = phi + ((mu - c)/2) l, and the derivative,
differential, volume-ratio and Laplacian identities connect computations
upstairs with computations on the reduced base.
"""

import numpy as np

import kredux as kx

grid = kx.torus_grid(n=16, n_l=65)
K = kx.perturbed(grid, 0.02)

red = kx.reduced_potential(K, 0.3)
print("reduction of the perturbed cylinder at tau = 0.3:")
print(f"  root residual          : {red.max_root_residual:.2e}")
print(f"  min omega_tau component: {red.min_eigenvalue:.4f}")

rng = np.random.default_rng(1)
f = kx.fixtures.random_resolved_p(grid, rng)

print("\nidentity battery on a random invariant field:")
rep = kx.check_dertau(K, f, 0.3)
print(f"  d(f_tau)/dtau vs reduced JV(f)/|V|^2 : {rep.linf:.2e}")
rep = kx.check_dcred(K, f, 0.3)
print(f"  d^c f_tau vs reduced combination     : {rep.linf:.2e}")
rep = kx.ma_reduced(K, 0.3 * f, 0.3)
print(f"  volume-ratio identity                : {rep.linf:.2e}")
rep = kx.laplace_reduced(K, f, 0.3)
print(f"  reduced-Laplacian identity           : {rep.linf:.2e}")

# reduction respects products exactly for fields the interpolant represents
a = kx.fixtures.random_resolved_m(grid, rng).values[..., None]
lin1 = kx.ScalarFieldP(grid, a + 0.5 * grid.l)
lin2 = kx.ScalarFieldP(grid, 1.0 - a * grid.l)
level = kx.level_set(K, 0.3)
gap = (kx.reduce_scalar(lin1 * lin2, level).values
       - kx.reduce_scalar(lin1, level).values * kx.reduce_scalar(lin2, level).values)
print(f"\nalgebra-map property (product of fiber-linear fields): "
      f"{np.max(np.abs(gap)):.2e}")
