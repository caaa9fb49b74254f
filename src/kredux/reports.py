"""Residual reports: the uniform result object of all identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResidualReport:
    """Norms of the gap between the two sides of one identity.

    ``reduced_by_tau`` holds [tau, residual] pairs for checks that sweep
    reduction levels; ``slope`` is the observed convergence order when the
    check was run at two resolutions; ``extra`` carries named scalar
    diagnostics.
    """

    equation: str
    grid: dict
    linf: float
    l2: float
    reduced_by_tau: list = field(default_factory=list)
    slope: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "equation": self.equation,
            "grid": self.grid,
            "linf": self.linf,
            "l2": self.l2,
            "reduced_linf_by_tau": [[t, r] for t, r in self.reduced_by_tau],
            "slope": self.slope,
            "extra": self.extra,
        }

    @property
    def reduced_linf(self):
        if not self.reduced_by_tau:
            return None
        return max(r for _, r in self.reduced_by_tau)


def attach_slope(coarse: ResidualReport, fine: ResidualReport) -> ResidualReport:
    """Observed order from a resolution-doubling pair, stored on the fine report."""
    import math

    if coarse.linf > 0 and fine.linf > 0:
        fine.slope = math.log2(coarse.linf / fine.linf)
    else:
        fine.slope = float("inf")
    return fine
