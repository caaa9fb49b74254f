import collections
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import kredux as kx
from kredux import fixtures, grids
from kredux.fixtures import profiled_field
from kredux.verify import battery_bases, battery_with_slopes, run_verify

# Reports of run_verify(torus_grid(n=16, n_l=33, margin=4), seed=0), written
# when the level solve began to bracket each root in one fiber segment and
# polish it from the segment's secant point.  The grid is too coarse for the
# thresholds to pass; only the numbers matter.
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "verify")
REL = 1e-13


def _close(a, b):
    return abs(a - b) <= REL * abs(b)


@pytest.fixture(scope="module")
def small_reports():
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    reports, _ = run_verify(grid, seed=0)
    return reports


def test_verify_reports_match_golden(small_reports):
    names = sorted(f[:-5] for f in os.listdir(GOLDEN) if f.endswith(".json"))
    assert names == sorted(small_reports)
    for name in names:
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            want = json.load(fh)
        got = small_reports[name].to_dict()
        assert got["equation"] == want["equation"]
        assert got["grid"] == want["grid"]
        for key in ("linf", "l2"):
            assert _close(got[key], want[key]), (name, key, got[key], want[key])
        if want["slope"] is None:
            assert got["slope"] is None, name
        else:
            assert _close(got["slope"], want["slope"]), name
        pairs = got["reduced_linf_by_tau"]
        assert len(pairs) == len(want["reduced_linf_by_tau"]), name
        for (t, r), (wt, wr) in zip(pairs, want["reduced_linf_by_tau"]):
            assert _close(t, wt) and _close(r, wr), (name, t, r, wt, wr)


def test_ricci_descent_reports_angular_leftover(small_reports):
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    K = kx.perturbed(grid, 0.02)
    rho = kx.descending_ricci(K)
    per_level = [kx.reduce_form(rho, kx.level_set(K, tau))[1]
                 for tau in kx.default_taus(K, count=3, shrink=0.3)]
    extra = small_reports["ricci_descent"].extra
    assert extra["angular_leftover"] == max(per_level)
    assert 0.0 < extra["angular_leftover"] < 1e-3


@pytest.mark.parametrize("check", ["check_dertau", "check_dcred",
                                   "ma_reduced", "laplace_reduced"])
def test_check_over_levels_matches_each_level(check):
    grid = kx.torus_grid(n=16, n_l=33, margin=4)
    K = kx.perturbed(grid, 0.02)
    f = kx.fixtures.random_resolved_p(grid, np.random.default_rng(3),
                                      amplitude=0.3)
    taus = [-0.3, 0.1, 0.4]
    fn = getattr(kx, check)
    merged = fn(K, f, taus)
    singles = [fn(K, f, t) for t in taus]
    assert [t for t, _ in merged.reduced_by_tau] == taus
    assert [r for _, r in merged.reduced_by_tau] == [s.linf for s in singles]
    assert merged.linf == max(s.linf for s in singles)
    assert merged.l2 == max(s.l2 for s in singles)
    assert all(len(s.reduced_by_tau) == 1 for s in singles)


# -- the shares of a battery pass ----------------------------------------------


def _small_battery_fixture(kind):
    if kind == "torus":
        grid = kx.torus_grid(n=16, n_l=33, margin=4)
    else:
        grid = kx.radial_grid(n_u=65, n_l=33, margin=4)
    return fixtures.battery_fixture(grid)


@pytest.mark.parametrize("kind", ["torus", "radial"])
def test_battery_pass_repeats_no_fiber_derivative(kind, monkeypatch):
    # battery_with_slopes on these grids made 42 (torus) and 108 (radial)
    # stencil calls with 11 repeated inputs each, before the slopes were
    # shared; 30 and 96 calls, none repeated, after
    K = _small_battery_fixture(kind)
    seen = collections.Counter()
    real = grids.fd_apply

    def hashing(values, axis, order, h, n):
        a = np.ascontiguousarray(values, dtype=float)
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        seen[(digest, a.shape, axis % a.ndim, order)] += 1
        return real(values, axis, order, h, n)

    monkeypatch.setattr(grids, "fd_apply", hashing)
    battery_with_slopes(K, seed=1)
    assert seen
    assert [key[1:] for key, count in seen.items() if count > 1] == []


def test_battery_pair_draws_its_random_fields_once(monkeypatch):
    K = _small_battery_fixture("torus")
    draws = []
    real = fixtures.random_resolved_m

    def counting(*args, **kwargs):
        draws.append(args[0].n_l)
        return real(*args, **kwargs)

    monkeypatch.setattr(fixtures, "random_resolved_m", counting)
    battery_with_slopes(K, seed=1)
    assert draws == [K.grid.n_l] * fixtures.FIBER_PROFILES


@pytest.mark.parametrize("kind", ["torus", "radial"])
@pytest.mark.parametrize("n_l", [33, 65, 129])
def test_battery_pair_shares_nodes_and_random_fields(kind, n_l):
    if kind == "torus":
        grid = kx.torus_grid(n=16, n_l=n_l, margin=4)
    else:
        grid = kx.radial_grid(n_u=65, n_l=n_l, margin=4)
    coarse = dataclasses.replace(grid, n_l=(n_l + 1) // 2)
    assert coarse.l.tobytes() == grid.l[::2].tobytes()
    bases = battery_bases(grid, seed=7)
    fine_f = profiled_field(grid, bases, amplitude=0.3)
    coarse_f = profiled_field(coarse, bases, amplitude=0.3)
    assert coarse_f.values.tobytes() == fine_f.values[..., ::2].tobytes()
    # the same bits as a draw of its own on each grid
    for g, f in ((grid, fine_f), (coarse, coarse_f)):
        own = kx.fixtures.random_resolved_p(g, np.random.default_rng(7),
                                            amplitude=0.3)
        assert own.values.tobytes() == f.values.tobytes()
