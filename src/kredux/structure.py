"""Circle-invariant Kahler structures on the product total space.

A structure is held as the triple (sigma, phi, c): a Kahler form on the base,
an invariant potential on the total space and a moment-map constant.  The
derived data are

    omega = pi^* sigma + dd^c phi,
    mu    = JV(phi) + c,
    |V|^2 = JV(mu),

and positivity is certified through the smallest eigenvalue of omega's
Hermitian component matrix over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositive
from .fields import (Form11M, Form11P, ScalarFieldM, ScalarFieldP, _FieldBase,
                     ddc_m, ddc_p, jv_apply)
from .grids import TestbedGrid
from .interp import FiberInterp


@dataclass(frozen=True)
class PositivityCertificate:
    min_eigenvalue: float
    worst_node: tuple

    @property
    def positive(self):
        return self.min_eigenvalue > 0.0


def _read_only(value):
    """Mark every array a derived value is made of read-only, through the
    attributes of every object in it; returns it.  The grid is not walked."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, _FieldBase):
        value.values.flags.writeable = False
    elif hasattr(value, "__dict__") and not isinstance(value, TestbedGrid):
        for item in vars(value).values():
            _read_only(item)
    return value


@dataclass(frozen=True)
class KahlerData:
    """Immutable bundle (sigma, phi, c) with derived omega, mu, |V|^2.

    Geometry derived from the structure alone (curvature, the moment-map
    Laplacian, level sets, ...) is computed on first use and kept, read-only,
    in ``_cache``; quantities that also depend on another field are not.
    """

    grid: TestbedGrid
    sigma: Form11M
    phi: ScalarFieldP
    c: float
    omega: Form11P
    mu: ScalarFieldP
    vsq: ScalarFieldP
    certificate: PositivityCertificate
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def cached(self, key, build):
        """``build()``, computed on the first request for ``key`` and stored
        with its arrays read-only."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = _read_only(build())
            return value

    def cache_new(self, keys, build):
        """Store, as ``cached`` does, the values of the keys in ``keys`` not
        stored yet: ``build(new)`` computes them all at once, in order.
        Returns the stored values of ``keys``."""
        new = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if new:
            for key, value in zip(new, build(new)):
                self._cache[key] = _read_only(value)
        return [self._cache[key] for key in keys]

    def mu_interp(self) -> FiberInterp:
        return self.cached("mu_interp",
                           lambda: FiberInterp(self.grid.l, self.mu.values))

    def log_v(self) -> ScalarFieldP:
        """log |V| = log(vsq)/2."""
        return self.cached("log_v", lambda: ScalarFieldP(
            self.grid, 0.5 * np.log(self.vsq.values)))

    def ddc_mu(self) -> Form11P:
        """dd^c mu, kept for the descending forms and D mu.  Its fiber slope
        is read off |V|^2 = -2 d_l mu: halving is exact, so ``-0.5 * vsq``
        is the same bits as the slope ``assemble`` took."""
        return self.cached("ddc_mu",
                           lambda: ddc_p(self.mu, -0.5 * self.vsq.values))

    def omega_det(self) -> np.ndarray:
        """Determinant of omega's Hermitian component matrix."""
        return self.cached("omega_det", self.omega.det)

    def mu_range(self):
        """Largest tau-interval reachable at every spatial node."""
        mu = self.mu.values
        return float(np.max(mu[..., -1])), float(np.min(mu[..., 0]))


def assemble(sigma: Form11M, phi: ScalarFieldP, c: float,
             require_positive: bool = True) -> KahlerData:
    """Build the invariant structure from a triple (sigma, phi, c).

    Raises NotPositive when the component matrix of omega fails strict
    positive-definiteness at some node, unless ``require_positive`` is off
    (the certificate is computed either way).
    """
    grid = phi.grid
    if sigma.grid != grid:
        raise ValueError("sigma and phi live on different grids")
    mu = jv_apply(phi)
    mu.values += c
    vsq = jv_apply(mu)
    g11 = grid.dzbar_dz(phi.values)
    g11 *= 2.0
    np.add(sigma.h[..., None], g11, out=g11)
    g12 = grid.dz_stripped(mu.values)
    np.negative(g12, out=g12)
    omega = Form11P(grid, g11, g12, np.multiply(0.5, vsq.values))
    mineig = omega.min_eigenvalue()
    worst = np.unravel_index(int(np.argmin(mineig)), mineig.shape)
    cert = PositivityCertificate(float(mineig[worst]), tuple(int(i) for i in worst))
    if require_positive and not cert.positive:
        raise NotPositive(
            f"omega is not positive: min eigenvalue {cert.min_eigenvalue:.3e} "
            f"at node {cert.worst_node}",
            node=cert.worst_node, eigenvalue=cert.min_eigenvalue)
    return KahlerData(grid, sigma, phi, float(c), omega, mu, vsq, cert)


def gauge(K: KahlerData, u: ScalarFieldM, b: float, c_tilde: float) -> KahlerData:
    """Move to the equivalent triple

        sigma~ = sigma + dd^c u,
        phi~   = phi - pi^* u + ((c~ - c)/2) l + b.

    The derived omega and mu agree pointwise with those of K; only the
    bookkeeping triple changes.  Raises NotPositive unless sigma~ and the
    new structure are positive.
    """
    grid = K.grid
    if u.grid != grid:
        raise ValueError("gauge function lives on a different grid")
    sigma_t = K.sigma + ddc_m(u)
    if not sigma_t.is_positive():
        raise NotPositive("sigma + dd^c u is not positive")
    l_ax = grid.l
    phi_t = ScalarFieldP(
        grid,
        K.phi.values - u.values[..., None] + 0.5 * (c_tilde - K.c) * l_ax + b)
    return assemble(sigma_t, phi_t, c_tilde)


def potential_from_moment(mu: ScalarFieldP, c: float) -> ScalarFieldP:
    """Invariant potential with JV(phi) + c = mu, vanishing at l_min.

    phi(x, l) = (1/2) * integral_{l_min}^{l} (c - mu(x, lam)) dlam, by the
    exact quadrature of the fiber interpolant; jv_apply(phi) + c reproduces
    mu to the accuracy of the fiber stencils.
    """
    grid = mu.grid
    integrand = 0.5 * (c - mu.values)
    return ScalarFieldP(grid, FiberInterp(grid.l, integrand).antiderivative())
