"""Command-line driver.

    kredux verify|reduce|flow|lift|residual|golden
           [--config FILE] [--out DIR] [--in DIR] [key=value ...]

Exit codes: 0 pass, 2 identity failure, 3 input error, 4 numerical breakdown.

On glibc, ``main`` first pins the allocator's policy: allocations below
32 MiB come from the heap, and the heap gives memory back to the kernel only
when more than 64 MiB is free at its top.  glibc's default sends freed numpy
temporaries of a few MB back to the kernel, and the next one of the same size
page-faults its memory in again.  Both thresholds are set, since setting
either one turns off glibc's own adjustment of the other.  ``import kredux``
changes nothing, and the policy has no option; elsewhere it is a no-op.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import KreduxError
from .fields import ddc_m
from .fixtures import bump, cylinder, perturbed, reference_sigma
from .flows import calabi_integrate, kr_integrate, pseudo_calabi_integrate
from .golden import golden_grid, run_golden
from .grids import TestbedGrid
from .io import (load_kahler, load_lift_taus, load_path, save_kahler,
                 save_path, save_reduction, write_json, write_meta)
from .lift import admissible_taus, concavity_shift, legendre_lift, roundtrip_check
from .reduction import reduced_potential
from .statics import RESIDUALS
from .verify import run_verify

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic mmap threshold
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # glibc's own rule when it raises it


def _pin_malloc_policy():
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    # the trim threshold alone would leave the mmap threshold at 128 KiB
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _grid_from(cfg: RunConfig) -> TestbedGrid:
    return TestbedGrid(cfg.testbed, cfg.n, cfg.n_l, cfg.l_min, cfg.l_max,
                       l_u=cfg.l_u, margin=cfg.margin)


# fixture names that ask for one testbed's cylinder: (reference, testbed)
_NAMED_CYLINDERS = {"cyl": ("flat", "torus"), "fscyl": ("round", "radial")}


def _fixture_from(cfg: RunConfig, grid: TestbedGrid):
    name = cfg.fixture
    if name == "perturbed":
        return perturbed(grid, cfg.flow_amplitude)
    if name in _NAMED_CYLINDERS:
        reference, testbed = _NAMED_CYLINDERS[name]
        if cfg.testbed != testbed:
            raise ValueError(f"the {reference} reference lives on the "
                             f"{testbed} testbed")
    elif name != "auto":
        raise ValueError(f"unknown fixture {name!r}")
    return cylinder(grid)


def _load_or_fixture(cfg, grid, in_dir):
    if in_dir:
        return load_kahler(in_dir)
    return _fixture_from(cfg, grid)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, args) -> int:
    grid = _grid_from(cfg)
    reports, failures = run_verify(grid, seed=cfg.seed, dtau=cfg.dtau)
    os.makedirs(cfg.out, exist_ok=True)
    names = sorted(reports)
    for name in names:
        write_json(os.path.join(cfg.out, f"{name}.json"),
                   reports[name].to_dict())
    write_meta(cfg.out, {"config": cfg.to_dict()},
               [f"{name}.json" for name in names])
    for name in names:
        rep = reports[name]
        slope = "" if rep.slope is None else f"  order={rep.slope:.2f}"
        print(f"{name}: linf={rep.linf:.3e}{slope}")
    if failures:
        print(f"FAIL: {failures[0]}", file=sys.stderr)
        for extra in failures[1:]:
            print(f"      {extra}", file=sys.stderr)
        return EXIT_IDENTITY
    print("all identities pass")
    return EXIT_OK


def cmd_reduce(cfg: RunConfig, args) -> int:
    grid = _grid_from(cfg)
    K = _load_or_fixture(cfg, grid, args.in_dir)
    lo, hi = K.mu_range()
    if np.isfinite(cfg.tau) and not lo <= cfg.tau <= hi:
        raise ValueError(f"tau={cfg.tau} lies outside the moment map's range "
                         f"[{lo:.6g}, {hi:.6g}]")
    red = reduced_potential(K, cfg.tau)
    save_reduction(red, cfg.out, {"config": cfg.to_dict()})
    print(f"tau={red.tau}: root residual {red.max_root_residual:.3e}, "
          f"min omega_tau component {red.min_eigenvalue:.6f}")
    return EXIT_OK


def cmd_flow(cfg: RunConfig, args) -> int:
    grid = _grid_from(cfg)
    sigma = reference_sigma(grid)
    psi0 = cfg.flow_amplitude * bump(grid)
    if not (sigma + ddc_m(psi0, grid)).is_positive():
        raise ValueError(f"flow_amplitude={cfg.flow_amplitude} gives a "
                         "starting potential that is not Kahler")
    dt = cfg.flow_dt if cfg.flow_dt > 0 else None
    if cfg.flow_kind == "calabi":
        path = calabi_integrate(psi0, sigma, cfg.flow_t_end, dt=dt)
    elif cfg.flow_kind == "pseudo_calabi":
        path = pseudo_calabi_integrate(psi0, sigma, cfg.flow_t_end, dt=dt)
    elif cfg.flow_kind == "kr":
        path = kr_integrate(psi0, sigma, cfg.flow_t_end, dt=dt)
    elif cfg.flow_kind == "nkr":
        path = kr_integrate(psi0, sigma, cfg.flow_t_end, dt=dt, normalized=True)
    else:
        raise ValueError(f"unknown flow kind {cfg.flow_kind!r}")
    save_path(path, cfg.out)
    write_meta(cfg.out, {"config": cfg.to_dict()},
               ("sigma.csv", "path.csv", "path_meta.json"))
    print(f"{cfg.flow_kind}: {path.n_samples} samples to t={path.ts[-1]:.4g}")
    return EXIT_OK


def cmd_lift(cfg: RunConfig, args) -> int:
    if not args.in_dir:
        raise ValueError("lift needs --in pointing at a flow path directory")
    path = load_path(args.in_dir)
    shifted, a_t = concavity_shift(path)
    lift = legendre_lift(shifted, n_l=cfg.n_l)
    taus = admissible_taus(shifted, lift)
    rep = roundtrip_check(shifted, lift, taus)
    write_json(os.path.join(cfg.out, "lift_meta.json"),
               {"a_t": [[float(t), float(a)] for t, a in zip(path.ts, a_t)],
                "window": list(lift.window),
                "max_inversion_residual": lift.max_inversion_residual,
                "inversion_steps": lift.inversion_steps,
                "admissible_taus": [float(t) for t in taus],
                "roundtrip": rep.to_dict()})
    save_kahler(lift.data, cfg.out, {"config": cfg.to_dict()},
                written=("lift_meta.json",))
    print(f"lift window [{lift.window[0]:.4g}, {lift.window[1]:.4g}], "
          f"roundtrip gap {rep.linf:.3e}")
    return EXIT_OK


def cmd_residual(cfg: RunConfig, args) -> int:
    eq, in_dir = args.eq, args.in_dir
    grid_hint = _grid_from(cfg)
    K = _load_or_fixture(cfg, grid_hint, in_dir)
    taus = load_lift_taus(in_dir) if in_dir else None
    rep = RESIDUALS[eq](K, taus=taus)
    os.makedirs(cfg.out, exist_ok=True)
    name = f"residual_{eq}.json"
    write_json(os.path.join(cfg.out, name), rep.to_dict())
    write_meta(cfg.out, {"config": cfg.to_dict()}, [name])
    reduced = rep.reduced_linf
    msg = "" if reduced is None else f", reduced-equivalence {reduced:.3e}"
    print(f"{eq}: linf={rep.linf:.3e}{msg}")
    return EXIT_OK


def cmd_golden(cfg: RunConfig, args) -> int:
    # the quotient lives on the radial testbed: there it takes n and n_l
    grid = golden_grid(n_u=cfg.n, n_l=cfg.n_l) if cfg.testbed == "radial" \
        else golden_grid()
    report = run_golden(grid)
    os.makedirs(cfg.out, exist_ok=True)
    write_json(os.path.join(cfg.out, "golden.json"), report)
    write_meta(cfg.out, {"config": cfg.to_dict()}, ["golden.json"])
    for w in report["warnings"]:
        print(f"note: {w}")
    print("golden checks " + ("pass" if report["passed"] else "FAIL"))
    return EXIT_OK if report["passed"] else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


COMMANDS = {"verify": cmd_verify, "reduce": cmd_reduce, "flow": cmd_flow,
            "lift": cmd_lift, "residual": cmd_residual, "golden": cmd_golden}


def _build_parser():
    p = argparse.ArgumentParser(prog="kredux")
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--in", dest="in_dir", default=None)
    p.add_argument("--eq", default="kr", choices=list(RESIDUALS))
    return p


def main(argv=None) -> int:
    _pin_malloc_policy()
    args, overrides = _build_parser().parse_known_args(argv)
    try:
        pairs = {}
        for item in overrides:  # verbatim: no comment rule, unlike a file
            if "=" not in item or item.startswith("-"):
                raise ValueError(f"expected key=value override, got {item!r}")
            key, _, val = item.partition("=")
            pairs[key.strip()] = val  # RunConfig.updated strips the value
        if args.out:
            pairs["out"] = args.out
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = cfg.updated(pairs)
        return COMMANDS[args.command](cfg, args)
    except KreduxError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
