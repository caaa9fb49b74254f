"""Run configuration: a flat ``key = value`` text format, diffable and
loss-free under round trips."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, asdict


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class RunConfig:
    testbed: str = "torus"
    n: int = 32
    n_l: int = 129
    l_min: float = -1.2
    l_max: float = 1.2
    l_u: float = 8.0
    margin: int = 8
    dtau: float = 1e-4
    flow_kind: str = "calabi"
    flow_dt: float = 0.0          # 0 means one step per saved sample
    flow_t_end: float = 0.01
    flow_amplitude: float = 0.005
    fixture: str = "auto"         # auto | cyl | fscyl | perturbed
    tau: float = 0.5
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        if self.testbed not in ("torus", "radial"):
            raise ValueError(f"unknown testbed {self.testbed!r}")
        if self.n < 9 or self.n_l < 9:
            raise ValueError("resolutions must be at least 9")
        for key in ("dtau", "flow_dt", "flow_t_end", "flow_amplitude"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        if self.flow_t_end <= 0:
            raise ValueError("flow_t_end must be positive")
        if self.flow_dt < 0:
            raise ValueError("flow_dt must be zero or positive")

    def to_text(self) -> str:
        lines = ["# kredux run configuration"]
        for f in fields(self):
            lines.append(f"{f.name} = {_fmt(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        return cfg.updated(_parse_pairs(text.splitlines()))

    def updated(self, pairs: dict) -> "RunConfig":
        kwargs = self.to_dict()
        for key, raw in pairs.items():
            if key not in kwargs:
                raise ValueError(f"unknown configuration key {key!r}")
            kwargs[key] = _coerce(raw, type(kwargs[key]))
        return RunConfig(**kwargs)


def _coerce(raw, ty):
    raw = raw.strip()
    if ty is int:
        return int(raw)
    if ty is float:
        return float(raw)
    return raw


def _parse_pairs(lines) -> dict:
    pairs = {}
    for i, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {i}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        pairs[key.strip()] = val.strip()
    return pairs


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_text(fh.read())
