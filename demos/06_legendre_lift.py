"""The converse direction: lifting a path of potentials to the total space.

Any sampled path becomes strictly concave in time after the
shift a_t; inverting its time velocity fiberwise produces an invariant
potential upstairs whose reductions reproduce the path (up to the shift and
a spatial constant per level), with positivity equivalent to the concavity
sign at every node.
"""

import numpy as np

import kredux as kx
from kredux.flows import FlowPath

grid = kx.torus_grid(n=16, n_l=65)
sigma = kx.reference_sigma(grid)
u = 0.05 * np.sin(2 * np.pi * grid.x1)[:, None] * np.ones((1, grid.n_spatial))
ts = np.linspace(0.0, 0.5, 41)
path = FlowPath(grid, sigma, "linear", ts, np.array([t * u for t in ts]))

shifted, a_t = kx.concavity_shift(path)
print(f"concavity shift of the linear path: max |a_t + t^2| = "
      f"{np.max(np.abs(a_t + ts ** 2)):.2e}")
print(f"shifted second time derivative max: "
      f"{np.max(shifted.time_derivative(2)):.9f} (<= -2)")

lift = kx.legendre_lift(shifted)
print(f"\nlift window: [{lift.window[0]:.3f}, {lift.window[1]:.3f}]")
print(f"inversion residual: {lift.max_inversion_residual:.2e}")
print(f"positivity certificate {lift.data.certificate.min_eigenvalue:.4f}; "
      f"matches the concavity criterion: {lift.criterion_agrees}")

taus = kx.admissible_taus(shifted, lift)
rep = kx.roundtrip_check(shifted, lift, taus)
print(f"\nround trip at {len(taus)} levels: potential gap {rep.linf:.2e}, "
      f"form gap {rep.extra['form_gap']:.2e}")

# a Ricci-flow path, lifted, satisfies the flow identity on its reductions
psi0 = 0.01 * np.cos(2 * np.pi * grid.x1)[:, None] * np.ones((1, grid.n_spatial))
kr = kx.kr_integrate(psi0, sigma, 0.1, dt=5e-4, save_count=101)
sh2, _ = kx.concavity_shift(kr)
lift2 = kx.legendre_lift(sh2, n_l=129)
taus2 = kx.admissible_taus(sh2, lift2)
rep2 = kx.residual_kr(lift2.data, taus=taus2)
print(f"\nlifted Ricci-flow path: reduced flow identity residual "
      f"{rep2.reduced_linf:.2e}")
