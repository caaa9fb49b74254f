"""File formats: field dumps, artifact directories, atomic writes.

Field dump (CSV, decimal text at 17 significant digits):

    # kredux-field v1, kind=torus, N=32, Nl=129, lmin=-1.2, lmax=1.2, lu=8, margin=4
    i,j,k,x1,x2,l,value

Radial grids use rows ``i,k,v,l,value``; base fields set ``Nl=0`` and drop
the fiber columns.  Writes are atomic (write to a temporary file, then
rename).  Total-space field dumps and ``path.csv`` (rows
``k,t,i[,j],value``) are written in slabs, one per first index (spatial
index or sample): one row template per file, filled per slab with the
slab's index and first coordinate (or ``t``) and ``%``-formatted values, so
a file is never held whole in memory.  The bytes are those of the
row-by-row format.

Loads parse whole slabs at a time with ``np.loadtxt`` into one owned array.
A field header must give integer counts and a grid ``TestbedGrid`` accepts;
``path.csv``'s header must be the one written for ``path_meta.json`` (its
``kind`` and ``N``).  Index columns are read as integers and must run in
``np.indices`` order; coordinate columns, and ``path.csv``'s ``t``, must be
exactly the text the writer gives for the header grid (for ``t``: the ``ts``
of ``path_meta.json``).  Each row has exactly the format's columns, each slab
its row count, and nothing follows the last slab; anything else is a
``ValueError`` that names the file.  So is a field dump in a structure or
path directory whose header grid is not the grid of its ``meta.json`` or
``path_meta.json`` (a base dump's ``Nl=0`` matches any ``n_l``), and JSON
that a loader reads which is not: a finite number ``c``; an object
``normalization`` and a list of finite positive ``dt_history`` (either may be
absent); a non-empty list of finite ``ts`` or ``admissible_taus``.  A bool
is no number.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import fields

import numpy as np

from .fields import Form11M, ScalarFieldP, _FieldBase
from .grids import TestbedGrid
from .structure import KahlerData, assemble
from .flows import FlowPath


def atomic_write(path, chunks):
    """Write ``chunks`` (a string, or an iterable of strings) to ``path``."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, obj):
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------


_FIELD_MAGIC = "# kredux-field v1"
_PATH_MAGIC = "# kredux-path v1"


def _header(grid: TestbedGrid, on_base: bool):
    nl = 0 if on_base else grid.n_l
    return (f"{_FIELD_MAGIC}, kind={grid.kind}, N={grid.n_spatial}, "
            f"Nl={nl}, lmin={grid.l_min:.17g}, lmax={grid.l_max:.17g}, "
            f"lu={grid.l_u:.17g}, margin={grid.margin}")


_FMT = "{:.17g}".format


def _fmt(a):
    """Each entry of ``a`` as decimal text at 17 significant digits."""
    return list(map(_FMT, np.ravel(a).tolist()))


def _slab_columns(axes):
    """The columns that every slab over ``axes`` (the dump axes after the
    first) carries, rows in ``np.indices`` order: an index array per axis,
    then the coordinate text per axis.  Writer and reader both take their
    text from here, so a load can compare it exactly."""
    ix = [i.ravel() for i in np.indices([len(a) for a in axes])]
    text = [[t[k] for k in i.tolist()] for t, i in zip(map(_fmt, axes), ix)]
    return ix, text


def _row_template(*cols):
    """The rows of one slab: ``cols`` joined by commas, then a ``%.17g``
    value field.  A column is an index array, a list of texts, or a mark
    that each slab fills with ``str.replace``: ``"\\0"`` for the slab
    index, ``"\\1"`` for the slab's own text."""
    n = max((len(c) for c in cols if not isinstance(c, str)), default=1)
    cols = [[c] * n if isinstance(c, str) else
            list(map(str, c.tolist())) if isinstance(c, np.ndarray) else c
            for c in cols]
    return "".join(",".join(r) + ",%.17g\n" for r in zip(*cols))


def _slabs(template, heads, values):
    """The text of each slab: ``template`` with index ``k``, ``heads[k]``
    and the entries of ``values[k]``."""
    for k, head in enumerate(heads):
        yield (template.replace("\0", str(k)).replace("\1", head)
               % tuple(values[k].ravel().tolist()))


def dump_field(field, path):
    """Write a scalar field or base (1,1)-form component to CSV."""
    if not isinstance(field, _FieldBase):
        raise TypeError(f"cannot dump {type(field).__name__}")
    grid, on_base = field.grid, field.on_base
    axes = grid.axes if on_base else (*grid.axes, grid.l)
    ix, text = _slab_columns(axes[1:])
    template = _row_template("\0", *ix, "\1", *text)
    atomic_write(path, itertools.chain([_header(grid, on_base) + "\n"],
                                       _slabs(template, _fmt(axes[0]),
                                              field.values)))


def _parse_header(line, path, magic):
    """The ``key=value`` pairs of a header line that opens with ``magic``."""
    if not line.startswith(magic):
        raise ValueError(f"{path}: header does not open with {magic!r}")
    meta = {}
    for part in line.split(",")[1:]:
        key, _, val = part.strip().partition("=")
        meta[key] = val
    return meta


# A double at 17 significant digits is at most 24 characters, so text read
# into 25 bytes is never cut to something that matches.
_TEXT = "S25"
# Rows per np.loadtxt call: as many whole slabs as fit, and at least one.
_READ_ROWS = 8192


def _check_length(fh, path, shape, ncols):
    """ValueError unless ``fh`` is long enough to hold a row of ``ncols``
    columns per entry of ``shape``, so that a header cannot make a load
    build more than its file could fill."""
    if math.prod(shape) * 2 * ncols > os.fstat(fh.fileno()).st_size:
        raise ValueError(f"{path}: fewer rows than the header gives")


def _read_slabs(fh, path, out, columns, source):
    """Fill ``out``, one slab of rows per entry of its first axis, from the
    lines of ``fh``, parsing whole slabs at a time.  ``columns(ks)`` lists
    what the columns before the value must hold in the slabs ``ks``, each
    broadcast against a ``(len(ks), rows)`` block: ints for an index column,
    bytes for a text column.  ValueError naming ``path`` unless every row
    parses and matches exactly, and the file ends after the last slab."""
    flat = out.reshape(len(out), -1)
    rows = flat.shape[1]
    if not flat.size:
        raise ValueError(f"{path}: no rows to read")
    dtype = np.dtype([(f"c{c}", _TEXT if np.asarray(e).dtype.kind == "S"
                       else "i8")
                      for c, e in enumerate(columns(np.arange(0)))]
                     + [("value", "f8")])
    step = max(1, _READ_ROWS // rows)
    for k in range(0, len(out), step):
        stop = min(k + step, len(out))
        n = (stop - k) * rows
        where = f"{path}, lines {2 + k * rows}-{1 + k * rows + n}"
        lines = list(itertools.islice(fh, n))
        # np.loadtxt skips blank lines, and warns on a block of nothing else
        if len(lines) < n or not lines[0].strip():
            raise ValueError(f"{where}: fewer rows than the header gives")
        try:
            block = np.loadtxt(lines, dtype=dtype, delimiter=",",
                               comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if len(block) != n:
            raise ValueError(f"{where}: {len(block)} rows, expected {n}")
        block = block.reshape(stop - k, rows)
        for c, expected in enumerate(columns(np.arange(k, stop))):
            column = block[f"c{c}"]
            if not np.all(column == expected):
                what = ("index column {} is out of order"
                        if column.dtype.kind == "i"
                        else "column {} does not match " + source)
                raise ValueError(f"{where}: {what.format(c)}")
        flat[k:stop] = block["value"]
    if fh.readline():
        raise ValueError(f"{path}: more rows than the header gives")
    return out


_HEADER_KEYS = ("kind", "N", "Nl", "lmin", "lmax", "lu", "margin")


def load_field(path):
    """Load a dumped field; returns (grid, values, on_base)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline().strip(), path, _FIELD_MAGIC)
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        try:
            nl = int(header["Nl"])
            on_base = nl == 0
            # base dumps carry no fiber resolution
            grid = TestbedGrid(header["kind"], int(header["N"]), nl or 9,
                               float(header["lmin"]), float(header["lmax"]),
                               l_u=float(header["lu"]),
                               margin=int(header["margin"]))
        except ValueError as exc:
            raise ValueError(f"{path}: header grid: {exc}") from None
        shape = grid.spatial_shape if on_base else grid.p_shape
        _check_length(fh, path, shape, 2 * len(shape) + 1)
        axes = grid.axes if on_base else (*grid.axes, grid.l)
        heads = np.array(_fmt(axes[0]), dtype=bytes)
        ix, text = _slab_columns(axes[1:])
        text = [np.array(t, dtype=bytes) for t in text]
        values = _read_slabs(fh, path, np.empty(shape),
                             lambda ks: [ks[:, None], *ix,
                                        heads[ks, None], *text],
                             "the header grid")
    return grid, values, on_base


# ---------------------------------------------------------------------------
# artifact directories
# ---------------------------------------------------------------------------


def _finite_number(x):
    """Whether the JSON value ``x`` is a number, not a bool, and finite."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer past the double range
        return False


def _read_meta(path):
    """The JSON object in ``path`` and the grid its ``grid`` block names;
    ValueError unless that block has exactly the grid's keys and a finite
    number (not a bool) for each of them but ``kind``, integral for the
    counts."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    keys = [f.name for f in fields(TestbedGrid)]
    g = meta.get("grid") if isinstance(meta, dict) else None
    if not isinstance(g, dict) or sorted(g) != sorted(keys):
        raise ValueError(f"{path}: grid block must have exactly the keys "
                         f"{', '.join(keys)}")
    for key in keys:
        if key != "kind" and not _finite_number(g[key]):
            raise ValueError(f"{path}: grid block value {key}={g[key]!r} "
                             "is not a finite number")
        if (key in ("n_spatial", "n_l", "margin")
                and isinstance(g[key], float) and not g[key].is_integer()):
            raise ValueError(f"{path}: grid block value {key}={g[key]!r} "
                             "is not an integer")
    return meta, TestbedGrid(**g)


def _load_on(grid: TestbedGrid, path, meta_path):
    """The values of the field dump ``path``, whose header must give
    ``grid``, the grid of ``meta_path`` (a base dump's ``Nl=0`` stands for
    any ``n_l``); ValueError naming the dump otherwise."""
    found, values, on_base = load_field(path)
    for f in fields(TestbedGrid):
        want, got = getattr(grid, f.name), getattr(found, f.name)
        if got != want and not (on_base and f.name == "n_l"):
            raise ValueError(f"{path}: header grid has {f.name}={got!r}, "
                             f"{os.path.basename(meta_path)} gives {want!r}")
    return values


def write_meta(outdir, meta, names):
    """Write ``outdir/meta.json``: ``meta`` and the hashes of the files
    ``names`` in ``outdir``, the ones its writer wrote."""
    write_json(os.path.join(outdir, "meta.json"),
               {**meta, "hashes": dir_hashes(outdir, names)})


def save_kahler(K: KahlerData, outdir, meta=None, written=()):
    """Write ``sigma.csv``, ``phi.csv`` and a ``meta.json`` that holds the
    structure's constants and ``meta``; it hashes the two dumps and the
    files ``written``, which the caller has already put in ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    dump_field(K.sigma, os.path.join(outdir, "sigma.csv"))
    dump_field(K.phi, os.path.join(outdir, "phi.csv"))
    write_meta(outdir, {"c": K.c, "grid": K.grid.meta(),
                        "positivity_min_eig": K.certificate.min_eigenvalue,
                        **(meta or {})}, ("sigma.csv", "phi.csv", *written))
    return outdir


def load_kahler(outdir) -> KahlerData:
    meta_path = os.path.join(outdir, "meta.json")
    meta, grid = _read_meta(meta_path)
    if not _finite_number(meta.get("c")):
        raise ValueError(f"{meta_path}: c is not a finite number")
    sig_vals = _load_on(grid, os.path.join(outdir, "sigma.csv"), meta_path)
    phi_vals = _load_on(grid, os.path.join(outdir, "phi.csv"), meta_path)
    return assemble(Form11M(grid, sig_vals), ScalarFieldP(grid, phi_vals),
                    float(meta["c"]))


def save_reduction(red, outdir, meta=None):
    """Write ``ltau.csv``, ``psitau.csv``, ``omegatau.csv`` and a
    ``meta.json`` that holds the level's diagnostics and ``meta``."""
    os.makedirs(outdir, exist_ok=True)
    names = ("ltau.csv", "psitau.csv", "omegatau.csv")
    for name, field in zip(names, (red.l_tau, red.psi_tau, red.omega_tau)):
        dump_field(field, os.path.join(outdir, name))
    write_meta(outdir, {"tau": red.tau,
                        "max_root_residual": red.max_root_residual,
                        "min_eigenvalue": red.min_eigenvalue,
                        **(meta or {})}, names)
    return outdir


def save_path(path_obj: FlowPath, outdir):
    os.makedirs(outdir, exist_ok=True)
    grid = path_obj.grid
    dump_field(path_obj.sigma, os.path.join(outdir, "sigma.csv"))
    header = (f"{_PATH_MAGIC}, kind={path_obj.kind}, sigma=sigma.csv, "
              f"N={grid.n_spatial}\n")
    ix, _ = _slab_columns(grid.axes)
    template = _row_template("\0", "\1", *ix)
    atomic_write(os.path.join(outdir, "path.csv"),
                 itertools.chain([header], _slabs(template, _fmt(path_obj.ts),
                                                  path_obj.psis)))
    meta = {"kind": path_obj.kind, "grid": grid.meta(),
            "normalization": path_obj.normalization,
            "dt_history": list(path_obj.dt_history),
            "ts": [float(t) for t in path_obj.ts]}
    write_json(os.path.join(outdir, "path_meta.json"), meta)
    return outdir


def load_path(outdir) -> FlowPath:
    meta_path = os.path.join(outdir, "path_meta.json")
    meta, grid = _read_meta(meta_path)
    missing = [k for k in ("kind", "ts") if k not in meta]
    if missing:
        raise ValueError(f"{meta_path}: lacks {', '.join(missing)}")
    if not (isinstance(meta["ts"], list) and meta["ts"]
            and all(map(_finite_number, meta["ts"]))):
        raise ValueError(f"{meta_path}: ts is not a non-empty list of finite "
                         "numbers")
    ts = np.array(meta["ts"], dtype=float)
    normalization = meta.get("normalization", {})
    if not isinstance(normalization, dict):
        raise ValueError(f"{meta_path}: normalization is not an object")
    dt_history = meta.get("dt_history", [])
    if not (isinstance(dt_history, list)
            and all(_finite_number(dt) and dt > 0 for dt in dt_history)):
        raise ValueError(f"{meta_path}: dt_history is not a list of finite "
                         "positive numbers")
    sig_vals = _load_on(grid, os.path.join(outdir, "sigma.csv"), meta_path)
    csv_path = os.path.join(outdir, "path.csv")
    shape = (len(ts),) + grid.spatial_shape
    with open(csv_path, "r", encoding="utf-8") as fh:
        # the header must be the one save_path writes for path_meta.json
        header = _parse_header(fh.readline().strip(), csv_path, _PATH_MAGIC)
        for key, want in (("kind", meta["kind"]), ("sigma", "sigma.csv"),
                          ("N", str(grid.n_spatial))):
            if header.get(key) != want:
                raise ValueError(f"{csv_path}: header {key}="
                                 f"{header.get(key)!r}, path_meta.json "
                                 f"gives {want!r}")
        _check_length(fh, csv_path, shape, len(shape) + 2)
        heads = np.array(_fmt(ts), dtype=bytes)
        ix, _ = _slab_columns(grid.axes)
        psis = _read_slabs(fh, csv_path, np.empty(shape),
                           lambda ks: [ks[:, None], heads[ks, None], *ix],
                           "the ts in path_meta.json")
    return FlowPath(grid, Form11M(grid, sig_vals), meta["kind"], ts, psis,
                    normalization, dt_history)


def load_lift_taus(lift_dir):
    """The ``admissible_taus`` of ``lift_dir/lift_meta.json``, or None when
    the directory has no such file; ValueError, naming the file, unless they
    are a non-empty list of finite numbers."""
    path = os.path.join(lift_dir, "lift_meta.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    taus = meta.get("admissible_taus") if isinstance(meta, dict) else None
    if not (isinstance(taus, list) and taus
            and all(map(_finite_number, taus))):
        raise ValueError(f"{path}: admissible_taus must be a non-empty list "
                         "of finite numbers")
    return np.array(taus, dtype=float)


def dir_hashes(outdir, names):
    """The sha256 of each of the files ``names`` in ``outdir``."""
    return {name: sha256_of(os.path.join(outdir, name))
            for name in sorted(names)}
