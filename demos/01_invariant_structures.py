"""Build circle-invariant Kahler structures on the product total space.

A structure is a triple (sigma, phi, c): a base Kahler form, an invariant
potential on (spatial grid) x (log-fiber axis), and a moment constant.  The
derived moment map is mu = JV(phi) + c with JV = -2 d/dl, and the squared
field strength |V|^2 = JV(mu) must be positive.
"""

import numpy as np

import kredux as kx

grid = kx.torus_grid(n=16, n_l=65)
print(f"torus testbed: {grid.n_spatial}^2 spatial nodes, "
      f"{grid.n_l} fiber nodes on [{grid.l_min}, {grid.l_max}]")

K = kx.cylinder(grid)
print("\nflat cylinder fixture (phi = l^2/4):")
print(f"  mu + l sup            : {np.max(np.abs(K.mu.values + grid.l)):.2e}")
print(f"  |V|^2 - 2 sup         : {np.max(np.abs(K.vsq.values - 2)):.2e}")
print(f"  positivity certificate: min eigenvalue "
      f"{K.certificate.min_eigenvalue:.6f} at node {K.certificate.worst_node}")

# gauge freedom: moving (sigma, phi, c) along the allowed transformations
# leaves omega and mu untouched
u = kx.ScalarFieldM(grid, 0.01 * np.sin(2 * np.pi * grid.x1)[:, None]
                    * np.ones((1, grid.n_spatial)))
K2 = kx.gauge(K, u, b=3.0, c_tilde=1.0)
print("\nafter a gauge move (u = 0.01 sin, b = 3, new constant c~ = 1):")
print(f"  omega component gap   : "
      f"{np.max(np.abs(K2.omega.g11 - K.omega.g11)):.2e}")
print(f"  moment map gap        : "
      f"{np.max(np.abs(K2.mu.values - K.mu.values)):.2e}")

# the potential can be recovered from the moment map by fiber quadrature
phi2 = kx.potential_from_moment(K.mu, K.c)
back = kx.jv_apply(phi2) + K.c
print("\nmoment map -> potential -> moment map round trip:")
print(f"  reproduction error    : {np.max(np.abs(back.values - K.mu.values)):.2e}")

# a potential with no fiber growth cannot be Kahler upstairs
try:
    kx.assemble(kx.reference_sigma(grid), kx.ScalarFieldP(grid, np.zeros(grid.p_shape)), 0.0)
except kx.NotPositive as exc:
    print(f"\nzero potential correctly rejected: {exc}")
