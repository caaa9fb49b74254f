import json
import os
import re
import shutil

import numpy as np
import pytest

import kredux as kx
from kredux.config import RunConfig, load_config
from kredux.fields import Form11M, ScalarFieldM, ScalarFieldP
from kredux.io import (atomic_write, dump_field, load_field, load_kahler,
                       load_path, save_kahler, save_path, save_reduction,
                       sha256_of)


def small_torus():
    return kx.torus_grid(n=12, n_l=17, margin=2)


def test_failed_write_leaves_no_file(tmp_path):
    def chunks():
        yield "a first line\n"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write(str(tmp_path / "target.csv"), chunks())
    assert os.listdir(tmp_path) == []


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
    sigma = kx.reference_sigma(grid)
    p = tmp_path / "sigma.csv"
    dump_field(sigma, str(p))
    _, vals, on_base = load_field(str(p))
    assert on_base
    assert np.array_equal(vals, sigma.h)


def test_kahler_directory_roundtrip(tmp_path):
    K = kx.cylinder(small_torus())
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
    K = kx.cylinder(small_torus())
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
    sigma = kx.reference_sigma(grid)
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
    lambda g: g.pop("margin"), lambda g: g.update(spacing=0.1),
    lambda g: g.update(n_l=str(g["n_l"])), lambda g: g.update(margin=True),
    lambda g: g.update(n_l=9.7), lambda g: g.update(l_u=10 ** 400)],
    ids=["missing_key", "unknown_key", "string_value", "bool_value",
         "non_integral_value", "huge_value"])


@BAD_GRID
def test_load_kahler_rejects_malformed_grid(tmp_path, edit):
    d = tmp_path / "kdir"
    save_kahler(kx.cylinder(small_torus()), str(d))
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


def test_load_path_accepts_integral_float_counts(tmp_path):
    d = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), d)
    _edit_grid(d / "path_meta.json",
               lambda g: g.update(n_l=9.0, n_spatial=9.0, margin=2.0))
    grid = load_path(str(d)).grid
    assert (grid.n_spatial, grid.n_l, grid.margin) == (9, 9, 2)
    assert type(grid.n_l) is int


def test_load_path_rejects_meta_that_is_not_an_object(tmp_path):
    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    (bad / "path_meta.json").write_text("[]\n")
    with pytest.raises(ValueError, match="path_meta.json: grid block"):
        load_path(str(bad))


# -- the other metadata the loaders read --------------------------------------
# A structure's c must be a finite number that is not a bool, as the grid
# block's numbers are; a path's normalization, when present, an object and its
# dt_history, when present, a list of finite positive numbers.  Anything else
# is a ValueError naming the file, and the CLI exits 3.


def _edit_meta(meta_path, edit):
    with open(meta_path) as fh:
        meta = json.load(fh)
    edit(meta)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("c"), lambda m: m.update(c=None), lambda m: m.update(c=[0]),
    lambda m: m.update(c=True), lambda m: m.update(c="0.5"),
    lambda m: m.update(c=float("inf")), lambda m: m.update(c=10 ** 400)],
    ids=["missing", "null", "list", "bool", "string", "inf", "huge_int"])
def test_load_kahler_rejects_malformed_c(tmp_path, capsys, edit):
    from kredux.cli import main

    d = tmp_path / "lift"
    save_kahler(kx.cylinder(small_torus()), str(d))
    _edit_meta(d / "meta.json", edit)
    message = f"{d / 'meta.json'}: c is not a finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_kahler(str(d))
    assert main(["residual", "--eq", "kr", "--in", str(d),
                 "--out", str(tmp_path / "res")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(dt_history=5), "dt_history is not a list of finite "
     "positive numbers"),
    (lambda m: m.update(dt_history=[1e-4, 0.0]), "dt_history is not a list"),
    (lambda m: m.update(dt_history=[True]), "dt_history is not a list"),
    (lambda m: m.update(dt_history=[float("nan")]), "dt_history is not a list"),
    (lambda m: m.update(normalization=[1]), "normalization is not an object")],
    ids=["number_dt_history", "zero_step", "bool_step", "nan_step",
         "list_normalization"])
def test_load_path_rejects_malformed_history(tmp_path, capsys, edit, message):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    _edit_meta(bad / "path_meta.json", edit)
    message = f"{bad / 'path_meta.json'}: {message}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_path(str(bad))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3
    assert message in capsys.readouterr().err


def test_load_path_takes_absent_or_empty_history(tmp_path):
    # a FlowPath built through the API saves an empty dt_history
    d = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), d)
    _edit_meta(d / "path_meta.json", lambda m: m.update(dt_history=[]))
    assert load_path(str(d)).dt_history == []
    _edit_meta(d / "path_meta.json",
               lambda m: (m.pop("dt_history"), m.pop("normalization")))
    path = load_path(str(d))
    assert path.dt_history == [] and path.normalization == {}


# -- header grids against the meta grid -------------------------------------------
# Each field dump of a directory must give the grid of its meta file; a base
# dump's Nl=0 stands for any n_l.  A mismatch is a ValueError naming the dump,
# and the CLI exits 3.


@pytest.mark.parametrize("key, value, message", [
    ("l_min", -1.0, "sigma.csv: header grid has l_min=-1.2, meta.json gives -1.0"),
    ("margin", 6, "sigma.csv: header grid has margin=4, meta.json gives 6"),
    ("n_l", 17, "phi.csv: header grid has n_l=33, meta.json gives 17")],
    ids=["l_min", "margin", "n_l"])
def test_load_kahler_checks_header_grids(tmp_path, key, value, message):
    from kredux.cli import main

    d = tmp_path / "kdir"
    save_kahler(kx.cylinder(kx.torus_grid(n=12, n_l=33, margin=4)),
                str(d))
    _edit_grid(d / "meta.json", lambda g: g.update({key: value}))
    with pytest.raises(ValueError, match=message):
        load_kahler(str(d))
    assert main(["reduce", "tau=0.3", "--in", str(d),
                 "--out", str(tmp_path / "red")]) == 3


def test_load_path_checks_the_sigma_grid(tmp_path):
    from kredux.cli import main

    d = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), d)
    _edit_grid(d / "path_meta.json", lambda g: g.update(n_l=17))
    assert load_path(str(d)).grid.n_l == 17  # sigma.csv is a base dump
    _edit_grid(d / "path_meta.json", lambda g: g.update(l_max=3.0))
    with pytest.raises(ValueError, match="sigma.csv: header grid has "
                       "l_max=0.131, path_meta.json gives 3.0"):
        load_path(str(d))
    assert main(["lift", "--in", str(d), "--out", str(tmp_path / "lift")]) == 3


def test_load_field_rejects_header_missing_a_key(tmp_path):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    text = (bad / "sigma.csv").read_text()
    (bad / "sigma.csv").write_text(text.replace(", N=", ", M=", 1))
    with pytest.raises(ValueError, match="sigma.csv: header lacks N"):
        load_field(str(bad / "sigma.csv"))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3


# -- headers and path metadata ---------------------------------------------------
# A header the writer could not have produced for its file, or a
# path_meta.json without a key the loader needs, is a ValueError that names
# the file, and the CLI exits 3.


def _edit_first_line(path, old, new):
    text = path.read_text()
    head, _, body = text.partition("\n")
    assert old in head
    path.write_text(head.replace(old, new, 1) + "\n" + body)


@pytest.mark.parametrize("name, old, new, message", [
    ("sigma.csv", "Nl=0,", "Nl=0.0,", "sigma.csv: header grid: .*'0.0'"),
    ("sigma.csv", "margin=2", "margin=2.5", "sigma.csv: header grid: .*'2.5'"),
    ("sigma.csv", "N=9,", "N=5,", "sigma.csv: header grid: .*at least 9"),
    ("sigma.csv", "kind=torus", "kind=plane", "sigma.csv: header grid: .*plane"),
    ("path.csv", "kind=kr", "kind=calabi",
     "path.csv: header kind='calabi', path_meta.json gives 'kr'"),
    ("path.csv", "N=9", "N=99",
     "path.csv: header N='99', path_meta.json gives '9'"),
    ("path.csv", "sigma=sigma.csv, ", "",
     "path.csv: header sigma=None, path_meta.json gives 'sigma.csv'"),
    ("path.csv", "kredux-path", "kredux-field",
     "path.csv: header does not open with '# kredux-path v1'")],
    ids=["non_integer_count", "non_integer_margin", "grid_too_small",
         "unknown_kind", "path_kind", "path_n", "path_sigma", "path_magic"])
def test_loaders_reject_headers_their_writer_could_not_give(
        tmp_path, name, old, new, message):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    _edit_first_line(bad / name, old, new)
    with pytest.raises(ValueError, match=message):
        load_path(str(bad))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3


TS_MESSAGE = "path_meta.json: ts is not a non-empty list of finite numbers"


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("ts"), "path_meta.json: lacks ts"),
    (lambda m: m.pop("kind"), "path_meta.json: lacks kind"),
    (lambda m: m.update(ts="0.1"), TS_MESSAGE),
    (lambda m: m.update(ts=[{"t": 0.0}]), TS_MESSAGE),
    (lambda m: m.update(ts=[]), TS_MESSAGE),
    (lambda m: m.update(ts=[str(t) for t in m["ts"]]), TS_MESSAGE),
    (lambda m: m["ts"].__setitem__(1, True), TS_MESSAGE),
    (lambda m: m["ts"].__setitem__(1, float("nan")), TS_MESSAGE)],
    ids=["missing_ts", "missing_kind", "string_ts", "object_ts", "empty_ts",
         "string_entries", "bool_entry", "nan_entry"])
def test_load_path_rejects_meta_without_ts_or_kind(tmp_path, edit, message):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    meta = json.loads((bad / "path_meta.json").read_text())
    edit(meta)
    (bad / "path_meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        load_path(str(bad))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3


# -- exact columns --------------------------------------------------------------
# A load compares every index and text column with what the writer would
# produce from the header grid (or from the ts of path_meta.json), so a row
# the writer could not have written is rejected, naming the file, and the CLI
# exits 3.


def _edit_cell(col, new, row=5):
    """An edit that replaces column ``col`` of body row ``row`` by
    ``new(old text)``."""
    def edit(rows):
        rows = list(rows)
        cells = rows[row].rstrip("\n").split(",")
        cells[col] = new(cells[col])
        rows[row] = ",".join(cells) + "\n"
        return rows
    return edit


def _shifted(text):
    return repr(float(text) + 0.25)


_EXTRA_COLUMN = _edit_cell(-1, lambda s: s + ",0")


@pytest.mark.parametrize("edit, message", [
    (_EXTRA_COLUMN, "8 were found"),
    (_edit_cell(5, lambda s: "abc"), "column 5 does not match the header"),
    (_edit_cell(5, _shifted), "column 5 does not match the header grid"),
    (_edit_cell(3, _shifted), "column 3 does not match the header grid"),
    (_edit_cell(0, lambda s: s + ".0"), "'0.0' to int64")],
    ids=["extra_column", "non_numeric_coordinate", "fiber_coordinate",
         "first_coordinate", "float_index"])
def test_load_field_checks_every_column(tmp_path, edit, message):
    from kredux.cli import main

    d = tmp_path / "kdir"
    save_kahler(kx.cylinder(small_torus()), str(d))
    _rewrite_rows(str(d / "phi.csv"), d / "phi.csv", edit)
    with pytest.raises(ValueError, match="phi.csv, lines 2-.*" + message):
        load_field(str(d / "phi.csv"))
    assert main(["residual", "--eq", "kr", "--in", str(d),
                 "--out", str(tmp_path / "res")]) == 3


@pytest.mark.parametrize("edit, message", [
    (_EXTRA_COLUMN, "6 were found"),
    (_edit_cell(1, lambda s: "abc", row=90),
     "column 1 does not match the ts in path_meta.json"),
    (_edit_cell(1, _shifted, row=90),
     "column 1 does not match the ts in path_meta.json"),
    (_edit_cell(2, lambda s: s + ".0"), "'0.0' to int64")],
    ids=["extra_column", "non_numeric_time", "time", "float_index"])
def test_load_path_checks_every_column(tmp_path, edit, message):
    from kredux.cli import main

    bad = tmp_path / "path"
    shutil.copytree(os.path.join(DATA, "path"), bad)
    _rewrite_rows(os.path.join(DATA, "path", "path.csv"), bad / "path.csv",
                  edit)
    with pytest.raises(ValueError, match="path.csv, lines 2-.*" + message):
        load_path(str(bad))
    assert main(["lift", "--in", str(bad), "--out", str(tmp_path / "lift")]) == 3


def test_loaders_reject_rows_after_the_last_slab(tmp_path):
    bad = tmp_path / "bad.csv"
    _rewrite_rows(os.path.join(DATA, "torus_p.csv"), bad,
                  lambda rows: list(rows) + [rows[-1]])
    with pytest.raises(ValueError, match="bad.csv: more rows"):
        load_field(str(bad))


def test_load_field_rejects_a_header_larger_than_its_file(tmp_path):
    bad = tmp_path / "bad.csv"
    text = _read(os.path.join(DATA, "torus_p.csv")).decode()
    bad.write_text(text.replace(" N=9,", " N=100000,", 1))
    with pytest.raises(ValueError, match="bad.csv: fewer rows"):
        load_field(str(bad))


def test_loaders_return_owned_arrays():
    for name in ("torus_p.csv", "torus_base.csv", "radial_p.csv",
                 "radial_base.csv"):
        _, vals, _ = load_field(os.path.join(DATA, name))
        assert vals.flags.owndata
    assert load_path(os.path.join(DATA, "path")).psis.flags.owndata
