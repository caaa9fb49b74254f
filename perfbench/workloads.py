"""The three benchmark workloads: their CLI command sequences, the inputs drawn
from the seed, and the correctness checks run on each pass's outputs.

Each acceptance tolerance is a copy of the bound stated by the acceptance
criteria (C1 to C5, C7, C8 and C10), kept here rather than read from
``kredux`` so that a change which loosens the program's own thresholds still
fails the benchmark.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# C1 to C4 as stated by the acceptance criteria; the battery bound covers
# every other report of ``kredux verify``.
VERIFY_LIMITS = {"convention_gate": 1e-8, "gauge_invariance": 1e-10,
                 "closed_form_reductions": 1e-9}
BATTERY_LIMIT = 1e-5
MIN_ORDER = 2.0
SLOPE_FLOOR = 1e-9      # below it the fine-grid error is roundoff
ROUNDTRIP_LIMIT = 1e-6  # C7
KR_REDUCED_LIMIT = 1e-4  # C8, kr flow
STATIC_LIMITS = {"geodesic": 1e-8, "calabi": 1e-8, "pseudo_calabi": 1e-8,
                 "v_soliton": 1e-7}  # C5 on the fs cylinder
CONTROL_SHARE = 0.1     # C5 negative control: linf >= 0.1 x dominant
GOLDEN_SPOT_LIMIT = 1e-12  # C10

RADIAL = ["testbed=radial", "n=257", "n_l=129"]
# tau range of default_taus on the radial perturbed fixture (amplitude 0.005):
# mu_range is (-1.1943, 1.1943) and default_taus pads it by a quarter.
RADIAL_TAU_RANGE = (-0.597, 0.597)


@dataclass
class Check:
    """One acceptance check: ``value`` must stay below ``limit``, or reach it
    when ``at_least`` is set.  ``ratio`` is the value's share of the
    tolerance, oriented so that lower is better and 1 is the edge; it feeds
    ``tol_ratio`` only for residual checks (``graded``), not for orders or
    pass/fail flags."""

    name: str
    value: float
    limit: float
    at_least: bool = False
    graded: bool = True

    @property
    def ok(self) -> bool:
        return self.value >= self.limit if self.at_least else self.value < self.limit

    @property
    def ratio(self) -> float:
        if self.at_least:
            return self.limit / self.value if self.value > 0 else float("inf")
        return self.value / self.limit


def _flag(name, ok) -> Check:
    return Check(name, float(bool(ok)), 1.0, at_least=True, graded=False)


@dataclass
class Outcome:
    """What the checks of one pass found."""

    checks: list = field(default_factory=list)
    order_min: float | None = None


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """A named command sequence on seed-drawn inputs.

    ``commands(work)`` gives ``(out_subdir, argv)`` pairs in run order;
    ``check(work)`` reads the outputs of one pass and returns an Outcome.
    """

    name = ""
    why = ""
    grids = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = {}

    def commands(self, work):
        raise NotImplementedError

    def check(self, work) -> Outcome:
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    why = ("identity battery: derivatives, assemble, level sets and curvature "
           "do the work; flows, lift and I/O do none")
    grids = {"torus": "32x32x129"}

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = {"seed": seed}

    def commands(self, work):
        return [("verify", ["verify", f"seed={self.seed}",
                            "--out", os.path.join(work, "verify")])]

    def check(self, work):
        out = Outcome()
        d = os.path.join(work, "verify")
        orders = []
        for fname in sorted(os.listdir(d)):
            if not fname.endswith(".json") or fname == "meta.json":
                continue
            rep = _read_json(os.path.join(d, fname))
            name = rep["equation"]
            out.checks.append(Check(name, rep["linf"],
                                    VERIFY_LIMITS.get(name, BATTERY_LIMIT)))
            if rep["slope"] is not None and rep["linf"] > SLOPE_FLOOR:
                orders.append(rep["slope"])
                out.checks.append(Check(f"{name}.order", rep["slope"],
                                        MIN_ORDER, at_least=True, graded=False))
            if name == "convention_gate":
                out.checks.append(_flag("convention_gate.min_vv_positive",
                                        rep["extra"]["min_vv"] > 0))
        out.order_min = min(orders) if orders else None
        return out


class LiftKr(Workload):
    name = "lift-kr"
    why = ("flow -> lift -> residual on the kr flow: the Legendre inversion "
           "and a 17 MB CSV write and read dominate")
    grids = {"torus": "32x32", "lift": "32x32x257"}

    def __init__(self, seed):
        super().__init__(seed)
        amp = random.Random(seed).uniform(0.008, 0.012)
        self.inputs = {"flow_amplitude": amp}

    def commands(self, work):
        flow, lift, res = (os.path.join(work, d) for d in ("flow", "lift", "res"))
        amp = self.inputs["flow_amplitude"]
        return [
            ("flow", ["flow", "flow_kind=kr", "flow_t_end=0.1", "flow_dt=2e-4",
                      f"flow_amplitude={amp!r}", "--out", flow]),
            ("lift", ["lift", "n_l=257", "--in", flow, "--out", lift]),
            ("res", ["residual", "--eq", "kr", "--in", lift, "--out", res]),
        ]

    def check(self, work):
        lift_meta = _read_json(os.path.join(work, "lift", "lift_meta.json"))
        res = _read_json(os.path.join(work, "res", "residual_kr.json"))
        reduced = max(r for _, r in res["reduced_linf_by_tau"])
        return Outcome([
            Check("lift_roundtrip", lift_meta["roundtrip"]["linf"],
                  ROUNDTRIP_LIMIT),
            Check("kr.reduced_equivalence", reduced, KR_REDUCED_LIMIT),
        ])


class Radial(Workload):
    name = "radial"
    why = ("radial 4th-order stencil path with no FFT: five static residuals, "
           "one reduction and the golden quotient")
    grids = {"radial": "257x129", "golden": "257x257"}

    EQUATIONS = ("geodesic", "calabi", "pseudo_calabi", "kr", "v_soliton")

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = {"tau": random.Random(seed).uniform(*RADIAL_TAU_RANGE)}

    def commands(self, work):
        cmds = [(f"res_{eq}", ["residual", "--eq", eq, *RADIAL, "fixture=fscyl",
                               "--out", os.path.join(work, f"res_{eq}")])
                for eq in self.EQUATIONS]
        cmds.append(("reduce", ["reduce", *RADIAL, "fixture=perturbed",
                                f"tau={self.inputs['tau']!r}",
                                "--out", os.path.join(work, "reduce")]))
        cmds.append(("golden", ["golden", "--out", os.path.join(work, "golden")]))
        return cmds

    def check(self, work):
        out = Outcome()
        for eq in self.EQUATIONS:
            rep = _read_json(os.path.join(work, f"res_{eq}", f"residual_{eq}.json"))
            if eq == "kr":
                # negative control: fs cylinder is not kr-static
                out.checks.append(Check("kr.control", rep["linf"],
                                        CONTROL_SHARE * rep["extra"]["dominant"],
                                        at_least=True))
            else:
                out.checks.append(Check(eq, rep["linf"], STATIC_LIMITS[eq]))
        golden = _read_json(os.path.join(work, "golden", "golden.json"))
        checks = golden["checks"]
        spot = max(abs(checks["mu_at_u0_s1"]["value"] + 2.0),
                   abs(checks["mu_at_u1_s1"]["value"] + 4.0 / 3.0))
        out.checks += [
            _flag("golden.passed", golden["passed"]),
            _flag("golden.one_warning", len(golden["warnings"]) == 1),
            Check("golden.spot", spot, GOLDEN_SPOT_LIMIT),
        ]
        return out


WORKLOADS = {w.name: w for w in (Verify, LiftKr, Radial)}
