"""Residuals of the five static equations on closed-form fixtures.

Each static equation on the total space encodes one geometric evolution of
the reduced metrics: the potential geodesic, the scalar-curvature flow, the
coupled flow, and the Ricci flow (unnormalized, and normalized through the
soliton-type equation).  Product fixtures solve them in closed form, and
deliberately wrong profiles give order-one residuals.
"""

import numpy as np

import kredux as kx
from kredux.statics import constant_profile

tg = kx.torus_grid(n=16, n_l=129)
rgr = kx.radial_grid(n_u=129, n_l=129)
cyl = kx.flat_cylinder(tg)
fscyl = kx.fs_cylinder(rgr)
lam = kx.lambda_mean(fscyl.sigma)
print(f"mean scalar curvature: flat torus {kx.lambda_mean(cyl.sigma):.1f}, "
      f"round sphere {lam:.1f}")

print("\nstatic residuals on the cylinder fixtures:")
rep = kx.residual_geodesic(cyl, constant_profile(1.0))
print(f"  geodesic,  h = 1      : {rep.linf:.2e}")
rep = kx.residual_calabi(cyl, lambda m: m)
print(f"  scalar flow, h = tau  : {rep.linf:.2e}")
rep = kx.residual_pseudo_calabi(fscyl)
print(f"  coupled flow (round)  : {rep.linf:.2e}")
rep = kx.residual_kr(cyl)
print(f"  Ricci flow (flat)     : {rep.linf:.2e}")
rep = kx.residual_v_soliton(fscyl, lambda m: lam * m * m / 4)
print(f"  soliton, f = lam u^2/4: {rep.linf:.2e}")

print("\nnegative controls (wrong profile or wrong fixture):")
rep = kx.residual_geodesic(cyl, constant_profile(0.0))
print(f"  geodesic with h = 0   : {rep.linf:.2e} "
      f"(dominant scale {rep.extra['dominant']:.2e})")
rep = kx.residual_kr(fscyl)
print(f"  Ricci flow on round   : {rep.linf:.2e}")

taus = kx.default_taus(cyl)
h = kx.h_canonical(cyl, taus)
print(f"\ncanonical profile of the cylinder is the identity: "
      f"max |h(tau) - tau| = {np.max(np.abs(h(taus) - taus)):.2e}")

K2 = kx.reparametrize(cyl, lambda m: m + 0.25)
print(f"level reparametrization mu -> mu + 1/4: pointwise error "
      f"{np.max(np.abs(K2.mu.values - cyl.mu.values - 0.25)):.2e}")
