"""File formats: field dumps, artifact directories, atomic writes.

Field dump (CSV, decimal text at 17 significant digits):

    # kredux-field v1, kind=torus, N=32, Nl=129, lmin=-1.2, lmax=1.2, lu=8, margin=4
    i,j,k,x1,x2,l,value

Radial grids use rows ``i,k,v,l,value``; base fields set ``Nl=0`` and drop
the fiber columns.  Writes are atomic (write to a temporary file, then
rename).  Field dumps and ``path.csv`` are streamed in slabs, one per first
index (spatial index or sample), so a file is never held whole in memory; the
format is unchanged, byte for byte.  Loads check that the index columns run
in ``np.indices`` order and that the row count matches the header.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import fields

import numpy as np

from .fields import Form11M, ScalarFieldM, ScalarFieldP
from .grids import TORUS, TestbedGrid
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


def _header(grid: TestbedGrid, on_base: bool):
    nl = 0 if on_base else grid.n_l
    return (f"# kredux-field v1, kind={grid.kind}, N={grid.n_spatial}, "
            f"Nl={nl}, lmin={grid.l_min:.17g}, lmax={grid.l_max:.17g}, "
            f"lu={grid.l_u:.17g}, margin={grid.margin}")


_FMT = "{:.17g}".format


def _fmt(a):
    """Each entry of ``a`` as decimal text at 17 significant digits."""
    return list(map(_FMT, np.ravel(a).tolist()))


def _rows(prefixes, values):
    """CSV rows ``prefix + value``, one per entry of ``values``."""
    return "\n".join(map(str.__add__, prefixes, _fmt(values))) + "\n"


def _field_slabs(axes, values):
    """Rows ``i,j,..,x_i,x_j,..,value`` of ``values`` over the coordinate
    axes, yielded one slab per first index."""
    idx, crd = [""], [""]
    for ax in axes[1:]:
        idx = [p + f"{n}," for p in idx for n in range(len(ax))]
        crd = [p + c + "," for p in crd for c in _fmt(ax)]
    for i, x in enumerate(_fmt(axes[0])):
        head, mid = f"{i},", x + ","
        yield _rows([head + a + mid + b for a, b in zip(idx, crd)], values[i])


def dump_field(field, path):
    """Write a scalar field or base (1,1)-form component to CSV."""
    if isinstance(field, Form11M):
        grid, values, on_base = field.grid, field.h, True
    elif isinstance(field, ScalarFieldM):
        grid, values, on_base = field.grid, field.values, True
    elif isinstance(field, ScalarFieldP):
        grid, values, on_base = field.grid, field.values, False
    else:
        raise TypeError(f"cannot dump {type(field).__name__}")
    axes = [grid.x1, grid.x2] if grid.kind == TORUS else [grid.v]
    if not on_base:
        axes.append(grid.l)
    atomic_write(path, itertools.chain([_header(grid, on_base) + "\n"],
                                       _field_slabs(axes, values)))


def _parse_header(line):
    if not line.startswith("# kredux-field v1"):
        raise ValueError("not a kredux field dump")
    meta = {}
    for part in line.split(",")[1:]:
        key, _, val = part.strip().partition("=")
        meta[key] = val
    return meta


def _check_index_columns(body, columns, shape, ncols, path):
    """Raise ValueError unless ``body`` has one row of ``ncols`` columns per
    entry of ``shape`` and its ``columns`` hold the indices of each row in
    ``np.indices`` order."""
    expected = (int(np.prod(shape)), ncols)
    if body.shape != expected:
        raise ValueError(f"{path}: {body.shape[0]} rows of {body.shape[1]} "
                         f"columns, expected {expected[0]} of {ncols}")
    for col, index in zip(columns, np.indices(shape, sparse=True)):
        if not np.all(body[:, col].reshape(shape) == index):
            raise ValueError(f"{path}: index column {col} is out of order")


_HEADER_KEYS = ("kind", "N", "Nl", "lmin", "lmax", "lu", "margin")


def load_field(path):
    """Load a dumped field; returns (grid, values, on_base)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = _parse_header(fh.readline().strip())
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    kind = header["kind"]
    n = int(header["N"])
    nl = int(header["Nl"])
    on_base = nl == 0
    grid_nl = nl if nl else 9  # base dumps carry no fiber resolution
    grid = TestbedGrid(kind, n, max(grid_nl, 9), float(header["lmin"]),
                       float(header["lmax"]), l_u=float(header["lu"]),
                       margin=int(header["margin"]))
    if kind == TORUS:
        shape = (n, n) if on_base else (n, n, nl)
    else:
        shape = (n,) if on_base else (n, nl)
    _check_index_columns(body, range(len(shape)), shape, 2 * len(shape) + 1,
                         path)
    return grid, body[:, -1].reshape(shape), on_base


# ---------------------------------------------------------------------------
# artifact directories
# ---------------------------------------------------------------------------


def _read_meta(path):
    """The JSON object in ``path`` and the grid its ``grid`` block names;
    ValueError unless that block has exactly the grid's keys and a number
    (not a bool) for each of them but ``kind``."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    keys = [f.name for f in fields(TestbedGrid)]
    g = meta.get("grid") if isinstance(meta, dict) else None
    if not isinstance(g, dict) or sorted(g) != sorted(keys):
        raise ValueError(f"{path}: grid block must have exactly the keys "
                         f"{', '.join(keys)}")
    for key in keys:
        if key != "kind" and (isinstance(g[key], bool)
                              or not isinstance(g[key], (int, float))):
            raise ValueError(f"{path}: grid block value {key}={g[key]!r} "
                             "is not a number")
    return meta, TestbedGrid(**g)


def save_kahler(K: KahlerData, outdir):
    os.makedirs(outdir, exist_ok=True)
    dump_field(K.sigma, os.path.join(outdir, "sigma.csv"))
    dump_field(K.phi, os.path.join(outdir, "phi.csv"))
    meta = {"c": K.c, "grid": K.grid.meta(),
            "positivity_min_eig": K.certificate.min_eigenvalue}
    write_json(os.path.join(outdir, "meta.json"), meta)
    return outdir


def load_kahler(outdir, require_positive=True) -> KahlerData:
    meta, grid = _read_meta(os.path.join(outdir, "meta.json"))
    _, sig_vals, _ = load_field(os.path.join(outdir, "sigma.csv"))
    _, phi_vals, _ = load_field(os.path.join(outdir, "phi.csv"))
    return assemble(Form11M(grid, sig_vals), ScalarFieldP(grid, phi_vals),
                    float(meta["c"]), require_positive=require_positive)


def save_reduction(red, outdir):
    os.makedirs(outdir, exist_ok=True)
    dump_field(red.l_tau, os.path.join(outdir, "ltau.csv"))
    dump_field(red.psi_tau, os.path.join(outdir, "psitau.csv"))
    dump_field(red.omega_tau, os.path.join(outdir, "omegatau.csv"))
    meta = {"tau": red.tau, "max_root_residual": red.max_root_residual,
            "min_eigenvalue": red.min_eigenvalue}
    write_json(os.path.join(outdir, "meta.json"), meta)
    return outdir


def save_path(path_obj: FlowPath, outdir):
    os.makedirs(outdir, exist_ok=True)
    grid = path_obj.grid
    dump_field(path_obj.sigma, os.path.join(outdir, "sigma.csv"))
    header = (f"# kredux-path v1, kind={path_obj.kind}, sigma=sigma.csv, "
              f"N={grid.n_spatial}\n")
    nodes = [",".join(map(str, ix)) + ","
             for ix in np.ndindex(grid.spatial_shape)]
    slabs = (_rows([f"{k},{t}," + a for a in nodes], psi)
             for k, (t, psi) in enumerate(zip(_fmt(path_obj.ts),
                                              path_obj.psis)))
    atomic_write(os.path.join(outdir, "path.csv"),
                 itertools.chain([header], slabs))
    meta = {"kind": path_obj.kind, "grid": grid.meta(),
            "normalization": path_obj.normalization,
            "dt_history": list(path_obj.dt_history),
            "ts": [float(t) for t in path_obj.ts]}
    write_json(os.path.join(outdir, "path_meta.json"), meta)
    return outdir


def load_path(outdir) -> FlowPath:
    meta, grid = _read_meta(os.path.join(outdir, "path_meta.json"))
    _, sig_vals, _ = load_field(os.path.join(outdir, "sigma.csv"))
    csv_path = os.path.join(outdir, "path.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        fh.readline()
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    ts = np.array(meta["ts"], dtype=float)
    shape = (len(ts),) + grid.spatial_shape
    _check_index_columns(body, [0] + list(range(2, 1 + len(shape))), shape,
                         len(shape) + 2, csv_path)
    psis = body[:, -1].reshape(shape)
    return FlowPath(grid, Form11M(grid, sig_vals), meta["kind"], ts, psis,
                    meta.get("normalization", {}), meta.get("dt_history", []))


def dir_hashes(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        p = os.path.join(outdir, name)
        if os.path.isfile(p) and not name.endswith("meta.json"):
            out[name] = sha256_of(p)
    return out
