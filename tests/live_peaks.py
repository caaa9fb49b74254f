"""Traced peaks of three ``kredux`` commands, in MB and in real fields.

    python tests/live_peaks.py OUT

Runs, in process and from ``OUT`` as the working directory (``OUT`` must be
empty or absent), ``kredux verify`` on its default 32x32x129 grid, then the
``lift-kr`` chain: ``flow flow_kind=kr flow_t_end=0.1 flow_dt=2e-4
flow_amplitude=0.01`` untraced, ``lift n_l=257`` and ``residual --eq kr``.
For each traced command it prints the tracemalloc peak above what was
allocated when the command started, in MB and in real fields of the
command's total-space grid (32x32x129 for ``verify``, 32x32x257 for the
lift and the residual).  Those are the bytes Python and numpy hold live;
peak RSS also counts how the C heap lays them out, which can hide a change
in what is live.  Exits 1 if a command fails.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (out directory, argv without --out, fiber nodes of its grid, traced)
COMMANDS = [
    ("verify", ["verify"], 129, True),
    ("flow", ["flow", "flow_kind=kr", "flow_t_end=0.1", "flow_dt=2e-4",
              "flow_amplitude=0.01"], None, False),
    ("lift", ["lift", "n_l=257", "--in", "flow"], 257, True),
    ("residual_kr", ["residual", "--eq", "kr", "--in", "lift"], 257, True),
]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/live_peaks.py OUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from kredux.cli import main as kredux_main

    root = Path(args[0]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    os.chdir(root)
    failed = False
    for out, cmd, n_l, traced in COMMANDS:
        if traced:
            tracemalloc.start()
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        with contextlib.redirect_stdout(io.StringIO()):
            code = kredux_main([*cmd, "--out", out])
        if traced:
            peak = tracemalloc.get_traced_memory()[1] - entry
            tracemalloc.stop()
            field = np.zeros((32, 32, n_l)).nbytes
            print(f"{' '.join(cmd)}: exit {code}, traced peak "
                  f"{peak / 2**20:.2f} MB = {peak / field:.2f} real fields "
                  f"of 32x32x{n_l}")
        else:
            print(f"{' '.join(cmd)}: exit {code}, not traced")
        failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
