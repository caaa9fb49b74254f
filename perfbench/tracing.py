"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public functions named in ``LAYERS`` with
wrappers that record a span (id, parent id, pass id, name, start, end) per
call, and counts taken from arguments and results.  A function is replaced in
every ``kredux`` module namespace that bound it (``from .x import f`` makes a
second binding), and a method on its class.  ``uninstall()`` puts the
originals back, so untraced passes run the program unchanged.  Spans stay in
memory; ``write_spans`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref

# module -> public functions; "Class.method" names a method
LAYERS = {
    "grids": ["TestbedGrid.dz_stripped", "TestbedGrid.dzbar_dz",
              "TestbedGrid.d_l", "TestbedGrid.d_v"],
    "fields": ["ddc_p", "ddc_m", "d_wedge_dc", "trace_against",
               "wedge_square", "jv_apply"],
    "interp": ["FiberInterp.solve_decreasing", "FiberInterp.at"],
    "structure": ["assemble"],
    "reduction": ["level_set", "reduced_potential", "reduce_scalar",
                  "reduce_form"],
    "curvature": ["ricci_p", "scal_m", "laplacian_p", "descending_scalar",
                  "descending_ricci"],
    "statics": ["residual_geodesic", "residual_calabi",
                "residual_pseudo_calabi", "residual_kr", "residual_v_soliton",
                "h_canonical"],
    "flows": ["calabi_integrate", "pseudo_calabi_integrate", "kr_integrate"],
    "lift": ["concavity_shift", "legendre_lift", "admissible_taus",
             "roundtrip_check"],
    "io": ["save_path", "load_path", "save_kahler", "load_kahler",
           "dump_field", "load_field", "dir_hashes", "atomic_write"],
    "verify": ["convention_gate", "gauge_invariance",
               "closed_form_reductions", "battery_once"],
    "golden": ["run_golden"],
}

# span names whose time counts as writing, outermost call only
IO_WRITERS = ("io.save_path", "io.save_kahler", "io.dump_field",
              "io.atomic_write")


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def layer_names():
    return [span_name(m, a) for m, attrs in LAYERS.items() for a in attrs]


class _Identity:
    """Distinct-object tokens keyed by ``id`` while each object is alive.

    Objects that take weak references release their token when they die, so
    a reused ``id`` gets a new token; the others are held until ``reset``.
    """

    def __init__(self):
        self._tokens = {}
        self._held = []
        self._next = 0

    def token(self, obj):
        key = id(obj)
        if key not in self._tokens:
            token = self._tokens[key] = self._next
            self._next += 1
            try:
                weakref.finalize(obj, self._forget, key, token)
            except TypeError:
                self._held.append(obj)
        return self._tokens[key]

    def _forget(self, key, token):
        if self._tokens.get(key) == token:
            del self._tokens[key]

    def reset(self):
        self._tokens.clear()
        self._held.clear()


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, pass, name, t0, t1)
        self.counts = {}
        self.level_keys = set()  # (structure token, tau)
        self.ricci_keys = set()  # structure token
        self.inversion_residual = 0.0
        self._ids = _Identity()
        self._stack = [0]
        self._next_id = 1
        self._pass = 0
        self._saved = []
        self._post = {
            "flows.calabi_integrate": self._flow,
            "flows.pseudo_calabi_integrate": self._flow,
            "flows.kr_integrate": self._flow,
            "lift.legendre_lift": self._lift,
            "reduction.level_set": self._level_set,
            "curvature.ricci_p": self._ricci,
            "io.atomic_write": self._written,
            "io.load_field": self._read_files(None),
            "io.load_path": self._read_files(("path.csv", "path_meta.json")),
            "io.load_kahler": self._read_files(("meta.json",)),
        }

    # -- counts taken at the layer boundary --------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _flow(self, args, kwargs, path):
        accepted = round(float(path.ts[-1]) / path.dt_history[-1])
        self.count("flows.steps", accepted)
        self.count("flows.rejected_steps", len(path.dt_history) - 1)

    def _lift(self, args, kwargs, result):
        self.inversion_residual = max(self.inversion_residual,
                                      result.max_inversion_residual)

    def _level_set(self, args, kwargs, result):
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        self.level_keys.add((self._ids.token(args[0]), float(tau)))

    def _ricci(self, args, kwargs, result):
        self.ricci_keys.add(self._ids.token(args[0]))

    def _written(self, args, kwargs, result):
        self.count("io.bytes_written", os.path.getsize(args[0]))

    def _read_files(self, names):
        def post(args, kwargs, result):
            target = args[0]
            paths = [target] if names is None else [
                os.path.join(target, n) for n in names]
            self.count("io.bytes_read", sum(os.path.getsize(p) for p in paths))
        return post

    # -- spans -------------------------------------------------------------

    def begin_pass(self, index):
        self._pass = index

    def end_pass(self):
        self._ids.reset()

    def span(self, name):
        """A span the benchmark opens itself, as a context manager."""
        return _Span(self, name)

    def _wrap(self, fn, name):
        post = self._post.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(tracer, name):
                result = fn(*args, **kwargs)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _count_calls(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counter

    def install(self):
        """Swap every traced name for its wrapper."""
        import kredux.cli  # noqa: F401  (loads every module that binds a name)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "kredux" or name.startswith("kredux.")}
        for module, attrs in LAYERS.items():
            home = mods[f"kredux.{module}"]
            for attr in attrs:
                name = span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._swap(cls, meth, self._wrap(cls.__dict__[meth], name))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(orig, name)
                for mod in mods.values():
                    if mod.__dict__.get(attr) is orig:
                        self._swap(mod, attr, wrapped)
        fiber = mods["kredux.interp"].FiberInterp
        self._swap(fiber, "__init__",
                   self._count_calls(fiber.__init__, "interp.FiberInterp.builds"))

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = {}
        for sid, parent, _, _, t0, t1 in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {}
        for sid, _, _, name, t0, t1 in self.spans:
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            dur = t1 - t0
            out[name] = (calls + 1, incl + dur, own + dur - child.get(sid, 0.0))
        return out

    def write_seconds(self):
        """Inclusive seconds of the outermost io write spans."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, parent, _, name, t0, t1 in self.spans:
            if name not in IO_WRITERS:
                continue
            p = parent
            while p and by_id[p][3] not in IO_WRITERS:
                p = by_id[p][1]
            if not p:
                total += t1 - t0
        return total

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, pass_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "pass": pass_id, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = t._next_id
        t._next_id += 1
        self.parent = t._stack[-1]
        t._stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.parent, t._pass, self.name, self.t0,
                        time.perf_counter()))
        return False
