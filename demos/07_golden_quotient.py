"""The singular-quotient moment map: a closed-form case with moving topology.

In chart variables u = |x1/x0|^2, s = |w|^2 the moment map is

    mu(u, s) = -s (1 + s + u + u^2) / (s + u + u^2),

with image in (-infinity, 0).  Deep levels cover the whole base; shallow
levels (tau in [-1, 0)) miss one pole neighborhood, which the level-set
solver reports as a first-class diagnostic rather than a failure.
"""

import numpy as np

import kredux as kx
from kredux.golden import mu_singquot

print("printed-formula spot values:")
print(f"  mu(0, 1)  = {mu_singquot(0.0, 1.0):+.12f}   (exact -2)")
print(f"  mu(1, 1)  = {mu_singquot(1.0, 1.0):+.12f}   (exact -4/3)")

grid = kx.golden_grid(n_u=129, n_l=129)
mu = kx.singquot_moment(grid)
print(f"\nsampled image: [{mu.values.min():.3f}, {mu.values.max():.3f}] "
      "(all negative)")
print(f"fiberwise monotone: max d(mu)/dl = {np.max(grid.d_l(mu.values, 1)):.3f}")

deep = kx.level_set(mu, -2.0, raise_on_miss=False)
print(f"\nlevel tau = -2.0: missing nodes = {int(np.sum(deep.missing))}, "
      f"root residual {deep.max_residual:.1e}")

shallow = kx.level_set(mu, -0.5, raise_on_miss=False)
n_miss = int(np.sum(shallow.missing))
print(f"level tau = -0.5: {n_miss} of {grid.n_spatial} nodes drop out, "
      f"all at the u -> 0 end: {bool(shallow.missing[0])}")

report = kx.run_golden()
print(f"\nfull golden report passes: {report['passed']}")
for w in report["warnings"]:
    print(f"note: {w}")
