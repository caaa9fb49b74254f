"""Benchmark of the kredux command-line pipelines.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
One process runs one workload: it drives ``kredux.cli.main(argv)`` in
process, pass after pass, for ``--seconds`` seconds, and checks every pass's
outputs (exit codes, acceptance residuals, and output hashes identical to the
first pass).  The first pass warms caches and is not timed.  Each command's
time is also divided by that of a fixed reference batch timed right before
and after it, which takes out most of the host's drift (``pass_rel``).
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON
object; the lines before it are the readable report.  Full results, with
provenance, go to ``.bench_build/perfbench/results/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
REF_SHARE = 0.1  # reference work after each command, as a share of its time
REF_MIN_BATCHES = 2
REF_REPEATS = 20  # one batch takes about 10 ms
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kredux.cli; "
                "print(time.perf_counter() - t)")

# ROADMAP item 1 baseline, ms per call (torus 32x32x129, radial 257x129)
ROADMAP_MS = {
    "structure.assemble": (34.8, 4.6),
    "grids.dz_stripped": (12.0, 0.6),
    "fields.ddc_p": (28.6, 3.0),
    "reduction.level_set": (0.8, 0.5),
    "reduction.reduced_potential": (2.1, 1.6),
    "curvature.ricci_p": (40.3, 3.8),
    "curvature.descending_scalar": (142.0, 15.0),
    "curvature.descending_ricci": (215.0, 24.6),
}


# ---------------------------------------------------------------------------
# reference work
# ---------------------------------------------------------------------------

_REF_INPUT = []


def reference_seconds():
    """Wall seconds of one batch of fixed numpy work that uses no kredux code:
    elementwise arithmetic and ``exp`` on a torus-sized array (32x32x129).
    It writes into a preallocated buffer, so its time does not depend on
    the state of the memory allocator, which the passes leave different.

    Of the kernels tried, this one slowed down most nearly in step with the
    commands of all three workloads; FFTs slowed down twice as much, and
    float formatting and Python loops tracked them less closely (NOTES.md).
    """
    import numpy as np

    if not _REF_INPUT:
        field = np.random.default_rng(0).standard_normal((32, 32, 129))
        _REF_INPUT.extend([field, np.empty_like(field)])
    field, tmp = _REF_INPUT
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        np.multiply(field, field, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(tmp, field, out=tmp)
        acc += float(np.sum(tmp))
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the work from being skipped; never true
        raise RuntimeError("reference computation gave NaN")
    return elapsed


class Reference:
    """Timings of the reference batch, taken before each pass and after each
    command.

    The host's speed drifts by tens of percent within seconds and from one
    minute to the next, and commands slow down with it.  The reference batch
    slows down alike, so a command's time over the median of the batches
    that bracket it measures the program rather than the host.
    """

    def __init__(self):
        self.samples = []

    def run(self, seconds):
        """Run at least ``REF_MIN_BATCHES`` batches, and more until they take
        ``REF_SHARE`` of ``seconds``; returns their timings."""
        batch = []
        while len(batch) < REF_MIN_BATCHES or sum(batch) < REF_SHARE * seconds:
            batch.append(reference_seconds())
        self.samples += batch
        return batch


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def call_cli(argv, tracer):
    """Run one CLI command in process; returns (exit code or None, output)."""
    from kredux.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = main(argv)
        except Exception:  # an uncaught error fails the pass, not the run
            traceback.print_exc()
            rc = None
    return rc, buf.getvalue()


def time_pass(commands, work, tracer, reference):
    """Run the command sequence once; returns (seconds, relative, error or
    None).  ``seconds`` is the commands' own wall time.  Reference batches
    run before the first command and after each one, outside that time;
    ``relative`` sums each command's time over the median of the batches on
    either side of it."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    before = reference.run(0.0)
    seconds = relative = 0.0
    for _, argv in commands:
        t0 = time.perf_counter()
        rc, log = call_cli(argv, tracer)
        elapsed = time.perf_counter() - t0
        after = reference.run(elapsed)
        seconds += elapsed
        relative += elapsed / statistics.median(before + after)
        before = after
        if rc != 0:
            last = log.strip().splitlines()[-1:] or [""]
            return seconds, relative, f"kredux {argv[0]} exited {rc}: {last[0]}"
    return seconds, relative, None


def check_pass(workload, commands, work):
    """Check one pass's outputs; returns the record fields they set."""
    try:
        outcome = workload.check(str(work))
        hashes = {}
        for sub, _ in commands:
            with open(work / sub / "meta.json", "r", encoding="utf-8") as fh:
                hashes[sub] = json.load(fh)["hashes"]
    except (OSError, KeyError, ValueError) as exc:
        return {"error": f"outputs unreadable: {exc!r}"}
    rec = {"order_min": outcome.order_min, "hashes": hashes}
    failed = [c.name for c in outcome.checks if not c.ok]
    if failed:
        rec["error"] = "checks failed: " + ", ".join(failed)
    graded = [c for c in outcome.checks if c.graded]
    if graded:
        worst = max(graded, key=lambda c: c.ratio)
        rec["tol_ratio"], rec["worst_check"] = worst.ratio, worst.name
    return rec


def run_passes(workload, seconds, tracer, reference):
    """Pass 0 warms caches and lazy imports and is checked but not timed;
    the passes after it run for ``seconds`` seconds.  With a tracer, odd
    passes are traced.  Checks run untraced, after each pass's timing."""
    work = WORK / "runs" / f"{workload.name}-{os.getpid()}"
    commands = workload.commands(str(work))
    passes = []
    first_hashes = None
    start = None
    try:
        while (len(passes) < (3 if tracer else 2)
               or time.perf_counter() - start < seconds):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.begin_pass(len(passes))
                tracer.install()
            try:
                elapsed, relative, error = time_pass(
                    commands, work, tracer if traced else None, reference)
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.end_pass()
            rec = {"seconds": elapsed, "relative": relative, "traced": traced,
                   "warmup": not passes, "error": error, "tol_ratio": None,
                   "worst_check": None, "order_min": None, "hashes": None}
            if error is None:
                rec.update(check_pass(workload, commands, work))
            if rec["error"] is None:
                if first_hashes is None:
                    first_hashes = rec["hashes"]
                elif rec["hashes"] != first_hashes:
                    rec["error"] = "output hashes differ from the first pass"
            passes.append(rec)
            if start is None:
                start = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def measure_setup(env):
    """Wall seconds of ``import kredux.cli`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def tail(values):
    """The highest standard percentile with at least ten samples beyond it,
    or the maximum when there are too few samples for any."""
    n = len(values)
    for p in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", statistics.quantiles(values, n=100)[int(p) - 1]
    return "max", max(values)


def end_to_end(passes, setup, reference):
    timed = [p for p in passes if not (p["traced"] or p["warmup"])]
    times = [p["seconds"] for p in timed]
    failed = sum(p["error"] is not None for p in passes)
    ratios = [p["tol_ratio"] for p in passes if p["tol_ratio"] is not None]
    orders = [p["order_min"] for p in passes if p["order_min"] is not None]
    label, tail_s = tail(times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_rel": (statistics.median(p["relative"] for p in timed), "ratio"),
        "pass_s": (statistics.median(times), "s"),
        "first_pass_s": (passes[0]["seconds"], "s"),
        f"pass_{label}_s": (tail_s, "s"),
        "pass_samples": (len(times), "count"),
        "reference_s": (statistics.median(reference.samples), "s"),
        "reference_samples": (len(reference.samples), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "fail_frac": (failed / len(passes), "ratio"),
        "tol_ratio": (max(ratios) if ratios else None, "ratio"),
        "order_min": (min(orders) if orders else None, "order"),
    }


def per_layer(passes, tracer, layer_names):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not (p["traced"] or p["warmup"])]
    n = len(traced)
    times = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in layer_names + ["cli.main"]:
        calls, _, own = times.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (own / n, "s")
    out["interp.FiberInterp.builds"] = (
        counts.get("interp.FiberInterp.builds", 0) / n, "count")

    steps = counts.get("flows.steps", 0)
    flow_s = sum(times.get(f"flows.{f}", (0, 0.0, 0.0))[1]
                 for f in ("calabi_integrate", "pseudo_calabi_integrate",
                           "kr_integrate"))
    out["flows.steps"] = (steps / n, "count")
    out["flows.rejected_steps"] = (counts.get("flows.rejected_steps", 0) / n,
                                   "count")
    out["flows.step_ms"] = (1000.0 * flow_s / steps if steps else 0.0, "ms")
    out["lift.inversion_residual"] = (tracer.inversion_residual, "residual")
    written = counts.get("io.bytes_written", 0)
    write_s = tracer.write_seconds()
    out["io.bytes_written"] = (written / n, "bytes")
    out["io.bytes_read"] = (counts.get("io.bytes_read", 0) / n, "bytes")
    out["io.write_mb_per_s"] = (written / 1e6 / write_s if write_s else 0.0,
                                "MB/s")

    # distinct work over calls; 1 when nothing was called, i.e. nothing wasted
    level_calls = times.get("reduction.level_set", (0,))[0]
    ricci_calls = times.get("curvature.ricci_p", (0,))[0]
    out["reduction.level_set.unique_ratio"] = (
        len(tracer.level_keys) / level_calls if level_calls else 1.0, "ratio")
    out["curvature.ricci_p.unique_ratio"] = (
        len(tracer.ricci_keys) / ricci_calls if ricci_calls else 1.0, "ratio")

    traced_s = statistics.median(p["seconds"] for p in traced)
    plain_s = statistics.median(p["seconds"] for p in plain)
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    return out


def roadmap_table(tracer, n_traced, testbed):
    """Inclusive ms per call of ROADMAP item 1's eight functions."""
    times = tracer.self_times()
    col = {"torus": 0, "radial": 1}.get(testbed)
    rows = []
    for name, ref in ROADMAP_MS.items():
        calls, incl, _ = times.get(name, (0, 0.0, 0.0))
        rows.append({"layer": name, "calls_per_pass": calls / n_traced,
                     "ms_per_call": 1000.0 * incl / calls if calls else None,
                     "roadmap_ms": None if col is None else ref[col]})
    return rows


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kredux").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, caps, nproc):
    import numpy
    import scipy

    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "thread_caps": caps,
            "KREDUX_THREADS": os.environ.get("KREDUX_THREADS", "unset"),
            "machine": platform.machine(), "platform": platform.platform(),
            "grids": workload.grids, "inputs": workload.inputs}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "kredux" / "cli.py").is_file():
        print(f"perfbench: no kredux sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # thread caps must be in the environment before numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    caps = {var: str(nproc) for var in THREAD_VARS}
    os.environ.update(caps)
    os.environ.pop("KREDUX_THREADS", None)
    inherited = [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + inherited)
    sys.path.insert(0, str(SRC))
    import kredux.cli  # noqa: F401  (also compiles the sources for the probes)

    if not Path(sys.modules["kredux"].__file__).resolve().is_relative_to(SRC):
        print("perfbench: kredux was not imported from this tree",
              file=sys.stderr)
        return 2

    from tracing import Tracer, layer_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    setup = measure_setup(dict(os.environ))
    tracer = Tracer() if args.trace else None
    reference = Reference()
    passes = run_passes(workload, args.seconds, tracer, reference)

    e2e = end_to_end(passes, setup, reference)
    metrics = e2e
    extra = {}
    if tracer is not None:
        metrics = per_layer(passes, tracer, layer_names())
        testbed = next(iter(workload.grids))
        extra["roadmap_ms_per_call"] = roadmap_table(
            tracer, sum(p["traced"] for p in passes), testbed)
        tracer.write_spans(str(WORK / "results" /
                               f"spans-{workload.name}-seed{args.seed}.jsonl"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(p["error"] is not None for p in passes)

    prov = provenance(workload, caps, nproc)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {failed} failed")
    for name, (value, unit) in (e2e | metrics).items():
        print(f"  {name:<44} {_fmt(value):>12} {unit}")
    worst = [p["worst_check"] for p in passes if p["worst_check"]]
    if worst:
        print(f"  tol_ratio is set by check {worst[0]}")
    for row in extra.get("roadmap_ms_per_call", []):
        print(f"  per call {row['layer']:<30} {_fmt(row['ms_per_call']):>10} ms"
              f"  (ROADMAP {_fmt(row['roadmap_ms'])} ms, "
              f"{row['calls_per_pass']:g} calls/pass)")
    for p_ in passes:
        if p_["error"]:
            print(f"  FAILED pass: {p_['error']}")
    print("  provenance " + json.dumps(prov, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, provenance=prov, setup_runs_s=setup,
                  reference_runs_s=reference.samples,
                  report={k: {"value": v, "unit": u}
                          for k, (v, u) in (e2e | metrics).items()},
                  passes=[{k: v for k, v in p_.items() if k != "hashes"}
                          for p_ in passes], **extra)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                  encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
