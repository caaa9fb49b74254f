import json
import os
import shutil

import numpy as np
import pytest

import kredux as kx
from kredux.config import RunConfig, load_config
from kredux.fields import Form11M, ScalarFieldM, ScalarFieldP
from kredux.io import (dump_field, load_field, load_kahler, load_path,
                       save_kahler, save_path, save_reduction, sha256_of)


def small_torus():
    return kx.torus_grid(n=12, n_l=17, margin=2)


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(testbed="radial", n=33, n_l=17, l_min=-0.7,
                    l_max=1.31e-1, flow_dt=1.25e-7, seed=3)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
    assert load_config(path) == cfg


def test_config_overrides_and_unknown_key():
    cfg = RunConfig()
    cfg2 = cfg.updated({"n": "64", "tau": "0.25"})
    assert cfg2.n == 64 and cfg2.tau == 0.25
    with pytest.raises(ValueError):
        cfg.updated({"resolution": "64"})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(testbed="plane")
    with pytest.raises(ValueError):
        RunConfig(n=4)
    with pytest.raises(ValueError):
        RunConfig.from_text("n 32\n")


def test_field_dump_roundtrip(tmp_path):
    grid = small_torus()
    rng = np.random.default_rng(0)
    f = kx.fixtures.random_resolved_p(grid, rng)
    p = tmp_path / "f.csv"
    dump_field(f, str(p))
    grid2, vals, on_base = load_field(str(p))
    assert not on_base
    assert grid2 == grid
    assert np.array_equal(vals, f.values)  # 17 significant digits round-trip


def test_field_dump_roundtrip_base_radial(tmp_path):
    grid = kx.radial_grid(n_u=17, n_l=9, margin=2)
    sigma = kx.fs_sigma(grid)
    p = tmp_path / "sigma.csv"
    dump_field(sigma, str(p))
    _, vals, on_base = load_field(str(p))
    assert on_base
    assert np.array_equal(vals, sigma.h)


def test_kahler_directory_roundtrip(tmp_path):
    K = kx.flat_cylinder(small_torus())
    d = tmp_path / "kdir"
    save_kahler(K, str(d))
    with open(d / "meta.json") as fh:
        meta = json.load(fh)
    assert meta["c"] == 0.0
    assert meta["positivity_min_eig"] > 0
    K2 = load_kahler(str(d))
    assert np.array_equal(K2.phi.values, K.phi.values)
    assert np.max(np.abs(K2.mu.values - K.mu.values)) == 0.0


def test_reduction_directory(tmp_path):
    K = kx.flat_cylinder(small_torus())
    red = kx.reduced_potential(K, 0.4)
    d = tmp_path / "red"
    save_reduction(red, str(d))
    with open(d / "meta.json") as fh:
        meta = json.load(fh)
    assert meta["tau"] == 0.4
    assert meta["max_root_residual"] < 1e-12
    for name in ("ltau.csv", "psitau.csv", "omegatau.csv"):
        assert (d / name).exists()


def test_path_directory_roundtrip(tmp_path):
    grid = small_torus()
    sigma = kx.flat_sigma(grid)
    path = kx.kr_integrate(np.zeros(grid.spatial_shape), sigma, 0.01,
                           dt=2e-3, save_count=5)
    d = tmp_path / "pathdir"
    save_path(path, str(d))
    p2 = load_path(str(d))
    assert np.array_equal(p2.ts, path.ts)
    assert np.array_equal(p2.psis, path.psis)
    assert p2.kind == path.kind


def test_deterministic_outputs(tmp_path):
    grid = small_torus()
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    f1 = kx.fixtures.random_resolved_p(grid, rng1)
    f2 = kx.fixtures.random_resolved_p(grid, rng2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_field(f1, str(p1))
    dump_field(f2, str(p2))
    assert sha256_of(str(p1)) == sha256_of(str(p2))


# -- golden dumps -------------------------------------------------------------
# The files under tests/data were written by the row-by-row f-string writer
# that the slab writer replaced; loading each and writing it again must give
# the same bytes.  They hold -0.0, subnormals and values near 1e+-300.

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name, kind", [
    ("torus_p.csv", ScalarFieldP), ("torus_base.csv", Form11M),
    ("radial_p.csv", ScalarFieldP), ("radial_base.csv", ScalarFieldM)])
def test_golden_field_dump_is_byte_identical(tmp_path, name, kind):
    golden = os.path.join(DATA, name)
    grid, vals, on_base = load_field(golden)
    assert on_base == (kind is not ScalarFieldP)
    out = tmp_path / name
    dump_field(kind(grid, vals), str(out))
    assert _read(out) == _read(golden)


def test_golden_dumps_cover_special_values():
    text = b"".join(_read(os.path.join(DATA, name)) for name in
                    ("torus_p.csv", "torus_base.csv", "radial_p.csv",
                     "radial_base.csv", "path/path.csv", "path/sigma.csv"))
    for token in (b",-0\n", b"4.9406564584124654e-324\n", b"e-320\n",
                  b"1e-300\n", b"e+300\n", b"1.7976931348623157e+308\n"):
        assert token in text


def test_golden_path_is_byte_identical(tmp_path):
    golden = os.path.join(DATA, "path")
    out = tmp_path / "path"
    save_path(load_path(golden), str(out))
    for name in ("path.csv", "sigma.csv", "path_meta.json"):
        assert _read(out / name) == _read(os.path.join(golden, name))


# -- index columns --------------------------------------------------------------


def _rewrite_rows(src, dst, edit):
    lines = _read(src).decode().splitlines(keepends=True)
    dst.write_text(lines[0] + "".join(edit(lines[1:])))


def _swap_two(rows):
    rows = list(rows)
    rows[3], rows[10] = rows[10], rows[3]
    return rows


BAD_ROWS = pytest.mark.parametrize("edit, message", [
    (_swap_two, "out of order"), (lambda rows: rows[:-1], "rows")],
    ids=["shuffled", "missing_row"])


@BAD_ROWS
def test_load_field_checks_index_columns(tmp_path, edit, message):
    bad = tmp_path / "bad.csv"
    _rewrite_rows(os.path.join(DATA, "torus_p.csv"), bad, edit)
    with pytest.raises(ValueError, match=message):
        load_field(str(bad))


@BAD_ROWS
def test_load_path_checks_index_columns(tmp_path, edit, message):
    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    _rewrite_rows(os.path.join(DATA, "path", "path.csv"), bad / "path.csv",
                  edit)
    with pytest.raises(ValueError, match=message):
        load_path(str(bad))


def _edit_grid(meta_path, edit):
    with open(meta_path) as fh:
        meta = json.load(fh)
    edit(meta["grid"])
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)


BAD_GRID = pytest.mark.parametrize("edit", [
    lambda g: g.pop("margin"), lambda g: g.update(spacing=0.1)],
    ids=["missing_key", "unknown_key"])


@BAD_GRID
def test_load_kahler_rejects_malformed_grid(tmp_path, edit):
    d = tmp_path / "kdir"
    save_kahler(kx.flat_cylinder(small_torus()), str(d))
    _edit_grid(d / "meta.json", edit)
    with pytest.raises(ValueError, match="meta.json: grid block"):
        load_kahler(str(d))


@BAD_GRID
def test_load_path_rejects_malformed_grid(tmp_path, edit):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    _edit_grid(bad / "path_meta.json", edit)
    with pytest.raises(ValueError, match="path_meta.json: grid block"):
        load_path(str(bad))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3


def test_load_path_rejects_meta_that_is_not_an_object(tmp_path):
    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    (bad / "path_meta.json").write_text("[]\n")
    with pytest.raises(ValueError, match="path_meta.json: grid block"):
        load_path(str(bad))
