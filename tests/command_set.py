"""The byte-identity command set: 28 ``kredux`` commands and what they write.

    python tests/command_set.py OUT

Runs every command of :data:`COMMANDS` in process, from ``OUT`` as the
working directory, each with its own relative ``--out`` directory, so that
the ``out`` each ``meta.json`` records is the same on every tree.  Writes
``OUT/manifest.json``: each command's exit code, the sha256 of its standard
output and standard error, and the sha256 of every file under its output
directory.  Two trees give the same outputs exactly when one ``diff`` of
their manifests is empty.  ``OUT`` must be empty or absent.  Exits 1 unless
every command exits with the code listed for it.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FLOWS = ("calabi", "pseudo_calabi", "kr", "nkr")
EQUATIONS = ("geodesic", "calabi", "pseudo_calabi", "kr", "v_soliton")
RADIAL = ("testbed=radial", "n=65", "n_l=33")

# (out directory, argv without --out, expected exit code), in run order.
# The radial testbed is broken outside the static fixtures: its battery
# fails the descent orders (exit 2) and its flows break down (exit 4).
COMMANDS = [
    ("verify_s1", ["verify", "seed=1"], 0),
    ("verify_s7", ["verify", "seed=7"], 0),
    ("verify_radial", ["verify", "testbed=radial", "n=65"], 2),
    *((f"flow_{kind}", ["flow", f"flow_kind={kind}"], 0) for kind in FLOWS),
    ("flow_radial_pc0", ["flow", *RADIAL, "flow_kind=pseudo_calabi",
                         "flow_amplitude=0"], 0),
    *((f"flow_radial_{kind}", ["flow", *RADIAL, f"flow_kind={kind}"], 4)
      for kind in FLOWS),
    ("kr_flow", ["flow", "flow_kind=kr", "flow_t_end=0.1", "flow_dt=2e-4",
                 "flow_amplitude=0.01"], 0),
    ("kr_lift", ["lift", "n_l=257", "--in", "kr_flow"], 0),
    ("kr_res", ["residual", "--eq", "kr", "--in", "kr_lift"], 0),
    *((f"res_{eq}", ["residual", "--eq", eq, "fixture=perturbed"], 0)
      for eq in EQUATIONS),
    *((f"res_radial_{eq}", ["residual", "--eq", eq, *RADIAL, "fixture=fscyl"],
       0) for eq in EQUATIONS),
    ("reduce", ["reduce", "fixture=perturbed", "tau=0.3"], 0),
    ("reduce_radial", ["reduce", *RADIAL, "fixture=perturbed", "tau=0.3"], 0),
    ("golden", ["golden"], 0),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(main, out, argv):
    """Run ``main(argv + ["--out", out])`` and record what it did."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", out])
    files = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            files[path.as_posix()] = _sha(path.read_bytes())
    return {"out": out, "argv": argv, "exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()), "files": files}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/command_set.py OUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kredux.cli import main as kredux_main

    root = Path(args[0]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    os.chdir(root)
    records, wrong = [], []
    for out, cmd, expected in COMMANDS:
        rec = run_command(kredux_main, out, cmd)
        records.append(rec)
        if rec["exit"] != expected:
            wrong.append(f"{out}: exit {rec['exit']}, expected {expected}")
        print(f"{out}: exit {rec['exit']}, {len(rec['files'])} files")
    n_files = sum(len(rec["files"]) for rec in records)
    with open("manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"files": n_files, "commands": records}, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} commands, {n_files} files: "
          f"{root / 'manifest.json'}")
    for line in wrong:
        print(f"unexpected exit code: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
