"""Command-line driver.

    kredux verify|reduce|flow|lift|residual|golden
           [--config FILE] [--out DIR] [--in DIR] [key=value ...]

Exit codes: 0 pass, 2 identity failure, 3 input error, 4 numerical breakdown.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, _parse_pairs, load_config
from .errors import KreduxError
from .fixtures import (flat_cylinder, flat_sigma, fs_cylinder, fs_sigma,
                       perturbed_cylinder, perturbed_fs_cylinder)
from .flows import calabi_integrate, kr_integrate, pseudo_calabi_integrate
from .golden import golden_grid, run_golden
from .grids import TORUS, TestbedGrid
from .io import (dir_hashes, load_kahler, load_path, save_kahler, save_path,
                 save_reduction, write_json)
from .lift import admissible_taus, concavity_shift, legendre_lift, roundtrip_check
from .reduction import reduced_potential
from .statics import RESIDUALS
from .verify import run_verify

EXIT_OK = 0
EXIT_IDENTITY = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _grid_from(cfg: RunConfig) -> TestbedGrid:
    return TestbedGrid(cfg.testbed, cfg.n, cfg.n_l, cfg.l_min, cfg.l_max,
                       l_u=cfg.l_u, margin=cfg.margin)


def _fixture_from(cfg: RunConfig, grid: TestbedGrid):
    name = cfg.fixture
    if name == "auto":
        name = "cyl" if grid.kind == TORUS else "fscyl"
    if name == "cyl":
        return flat_cylinder(grid)
    if name == "fscyl":
        return fs_cylinder(grid)
    if name == "perturbed":
        if grid.kind == TORUS:
            return perturbed_cylinder(grid, amplitude=cfg.flow_amplitude)
        return perturbed_fs_cylinder(grid, amplitude=cfg.flow_amplitude)
    raise ValueError(f"unknown fixture {name!r}")


def _load_or_fixture(cfg, grid, in_dir):
    if in_dir:
        return load_kahler(in_dir)
    return _fixture_from(cfg, grid)


def _finalize_dir(outdir, cfg):
    import json

    meta_path = os.path.join(outdir, "meta.json")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    meta.update({"config": cfg.to_dict(), "hashes": dir_hashes(outdir)})
    write_json(meta_path, meta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    grid = _grid_from(cfg)
    reports, failures = run_verify(grid, seed=cfg.seed, dtau=cfg.dtau)
    os.makedirs(cfg.out, exist_ok=True)
    names = sorted(reports)
    for name in names:
        write_json(os.path.join(cfg.out, f"{name}.json"),
                   reports[name].to_dict())
    _finalize_dir(cfg.out, cfg)
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


def cmd_reduce(cfg: RunConfig, in_dir=None) -> int:
    grid = _grid_from(cfg)
    K = _load_or_fixture(cfg, grid, in_dir)
    red = reduced_potential(K, cfg.tau, root_tol=cfg.root_tol)
    save_reduction(red, cfg.out)
    _finalize_dir(cfg.out, cfg)
    print(f"tau={red.tau}: root residual {red.max_root_residual:.3e}, "
          f"min omega_tau component {red.min_eigenvalue:.6f}")
    return EXIT_OK


def _initial_potential(cfg, grid):
    if grid.kind == TORUS:
        vals = cfg.flow_amplitude * np.cos(
            2 * np.pi * grid.x1)[:, None] * np.ones(grid.spatial_shape)
    else:
        vals = cfg.flow_amplitude * np.exp(-grid.v ** 2 / 4.0)
    return vals


def cmd_flow(cfg: RunConfig) -> int:
    grid = _grid_from(cfg)
    sigma = flat_sigma(grid) if grid.kind == TORUS else fs_sigma(grid)
    psi0 = _initial_potential(cfg, grid)
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
    _finalize_dir(cfg.out, cfg)
    print(f"{cfg.flow_kind}: {path.n_samples} samples to t={path.ts[-1]:.4g}")
    return EXIT_OK


def cmd_lift(cfg: RunConfig, in_dir) -> int:
    if not in_dir:
        raise ValueError("lift needs --in pointing at a flow path directory")
    path = load_path(in_dir)
    shifted, a_t = concavity_shift(path)
    lift = legendre_lift(shifted, n_l=cfg.n_l, a_t=a_t)
    taus = admissible_taus(shifted, lift)
    rep = roundtrip_check(shifted, lift, taus)
    save_kahler(lift.data, cfg.out)
    write_json(os.path.join(cfg.out, "lift_meta.json"),
               {"a_t": [[float(t), float(a)]
                        for t, a in zip(path.ts, lift.a_t)],
                "window": list(lift.window),
                "max_inversion_residual": lift.max_inversion_residual,
                "admissible_taus": [float(t) for t in taus],
                "roundtrip": rep.to_dict()})
    _finalize_dir(cfg.out, cfg)
    print(f"lift window [{lift.window[0]:.4g}, {lift.window[1]:.4g}], "
          f"roundtrip gap {rep.linf:.3e}")
    return EXIT_OK


def cmd_residual(cfg: RunConfig, in_dir, eq) -> int:
    import json

    grid_hint = _grid_from(cfg)
    K = _load_or_fixture(cfg, grid_hint, in_dir)
    taus = None
    if in_dir:
        lift_meta = os.path.join(in_dir, "lift_meta.json")
        if os.path.exists(lift_meta):
            with open(lift_meta, "r", encoding="utf-8") as fh:
                taus = np.array(json.load(fh)["admissible_taus"])
    rep = RESIDUALS[eq](K, taus=taus)
    os.makedirs(cfg.out, exist_ok=True)
    write_json(os.path.join(cfg.out, f"residual_{eq}.json"), rep.to_dict())
    _finalize_dir(cfg.out, cfg)
    reduced = rep.reduced_linf
    msg = "" if reduced is None else f", reduced-equivalence {reduced:.3e}"
    print(f"{eq}: linf={rep.linf:.3e}{msg}")
    return EXIT_OK


def cmd_golden(cfg: RunConfig) -> int:
    grid = golden_grid() if cfg.testbed != "radial" or cfg.fixture == "auto" \
        else golden_grid(n_u=cfg.n, n_l=cfg.n_l)
    report = run_golden(grid)
    os.makedirs(cfg.out, exist_ok=True)
    write_json(os.path.join(cfg.out, "golden.json"), report)
    _finalize_dir(cfg.out, cfg)
    for w in report["warnings"]:
        print(f"note: {w}")
    print("golden checks " + ("pass" if report["passed"] else "FAIL"))
    return EXIT_OK if report["passed"] else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="kredux")
    p.add_argument("command",
                   choices=["verify", "reduce", "flow", "lift", "residual",
                            "golden"])
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--in", dest="in_dir", default=None)
    p.add_argument("--eq", default="kr", choices=list(RESIDUALS))
    return p


def main(argv=None) -> int:
    args, overrides = _build_parser().parse_known_args(argv)
    try:
        for item in overrides:
            if "=" not in item or item.startswith("-"):
                raise ValueError(f"expected key=value override, got {item!r}")
        cfg = load_config(args.config) if args.config else RunConfig()
        if overrides:
            cfg = cfg.updated(_parse_pairs(overrides))
        if args.out:
            cfg = cfg.updated({"out": args.out})
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "reduce":
            return cmd_reduce(cfg, args.in_dir)
        if args.command == "flow":
            return cmd_flow(cfg)
        if args.command == "lift":
            return cmd_lift(cfg, args.in_dir)
        if args.command == "residual":
            return cmd_residual(cfg, args.in_dir, args.eq)
        if args.command == "golden":
            return cmd_golden(cfg)
    except KreduxError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
