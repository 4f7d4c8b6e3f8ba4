"""Timing wrappers around the entry points of each arevlex layer.

A layer is a module of the package.  Its entry points are the module-level
functions that are public or that another module imports, such as
``ideals._slices``, ``ideals._pommaret_raw`` and ``tangent._linear_rows``.
:meth:`Tracer.install` replaces *every* ``arevlex.*`` binding of each such
function object, because modules import by name (``tangent`` binds
``_pommaret_raw`` and ``rank as matrix_rank``), so patching the defining
module alone would miss calls.  The stability predicates ``_stable``,
``_strongly_stable`` and ``_quasi_stable`` are cached properties of
``MonomialIdeal``; their underlying functions are wrapped in place.

``terms`` gets no spans: its ``raw_*`` helpers run millions of times in
every loop, so a wrapper would time itself.  Only ``enumerate_terms`` is
counted, and the cost of the helpers stays in their callers' self time, as
does the cost of any method (``MonomialIdeal.__post_init__``, the
``HilbertFunction`` methods, ...).

Spans (name, start, end, parent, op id) are kept in flat arrays and written
out at the end.  A span's self time is its duration minus that of its child
spans.  :meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("cli", "construct", "hilbert", "ideals", "tangent", "linalg",
          "marked_reduction", "terms")
STABILITY_PROPERTIES = ("_stable", "_strongly_stable", "_quasi_stable")

# span names grouped into the sub-metrics of the ideals layer
IDEALS_GROUPS = {
    "minimalize": ("ideals.minimalize",),
    "stable": ("ideals.is_stable", "ideals.is_strongly_stable", "ideals.is_quasi_stable",
               "ideals._stable", "ideals._strongly_stable", "ideals._quasi_stable"),
    "slices": ("ideals._slices", "ideals._expand_slice", "ideals.sous_escalier",
               "ideals.first_expansion"),
    "pommaret": ("ideals._pommaret_raw", "ideals.pommaret_decompose"),
}

CACHE_NOTE = (
    "MonomialIdeal caches _stable and the staircase slices per instance, so "
    "that cost lands on whichever entry point touches an ideal first"
)


class Tracer:
    """Installs span wrappers into a loaded arevlex package and collects spans."""

    def __init__(self, package: str = "arevlex"):
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = {"enumerate_calls": 0, "rank_rows": 0, "rank_sum": 0}
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def _count_rank(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(rows, *args, **kwargs):
            if not hasattr(rows, "__len__"):
                rows = list(rows)
            counts["rank_rows"] += len(rows)
            r = fn(rows, *args, **kwargs)
            counts["rank_sum"] += r
            return r

        return wrapper

    def _count_enumerate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["enumerate_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def modules(self) -> dict:
        p = self.package
        return {k: m for k, m in sys.modules.items() if k == p or k.startswith(p + ".")}

    def entry_points(self) -> dict:
        """{function: [(module, attribute), ...]} for every wrapped function."""
        places: dict = {}
        for mod in self.modules().values():
            for attr, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and obj.__module__.startswith(self.package + "."):
                    places.setdefault(obj, []).append((mod, attr))
        chosen = {}
        for fn, where in places.items():
            layer = fn.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            imported = any(m.__name__ not in (fn.__module__, self.package) for m, _ in where)
            if layer == "terms":
                if fn.__name__ == "enumerate_terms":
                    chosen[fn] = where
            elif imported or not fn.__name__.startswith("_"):
                chosen[fn] = where
        return chosen

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for fn, where in self.entry_points().items():
            layer = fn.__module__.rpartition(".")[2]
            if layer == "terms":
                wrapped = self._count_enumerate(fn)
            else:
                inner = self._count_rank(fn) if (layer, fn.__name__) == ("linalg", "rank") else fn
                wrapped = self._span(inner, f"{layer}.{fn.__name__}")
            for mod, attr in where:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, fn))
        cls = sys.modules[f"{self.package}.ideals"].MonomialIdeal
        for prop in STABILITY_PROPERTIES:
            cp = cls.__dict__[prop]
            original = cp.func
            cp.func = self._span(original, f"ideals.{prop}")
            self._undo.append((cp, "func", original))

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results ---------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to aggregate from: (span count, copy of the counters)."""
        return len(self.span_name), dict(self.counts)

    def aggregate(self, since: tuple[int, dict]) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``mark()``."""
        lo, counts0 = since
        hi = len(self.span_name)
        names = [self.names[i] for i in self.span_name[lo:hi]]
        parents = self.span_parent[lo:hi]
        dur = [e - s for s, e in zip(self.span_start[lo:hi], self.span_end[lo:hi])]
        child = [0.0] * (hi - lo)
        for k, p in enumerate(parents):
            if p >= lo:
                child[p - lo] += dur[k]
        self_by_name: dict[str, float] = {}
        calls_by_name: dict[str, int] = {}
        construct_entries = rewrites = 0
        for k, name in enumerate(names):
            self_by_name[name] = self_by_name.get(name, 0.0) + dur[k] - child[k]
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            p = parents[k]
            parent_name = names[p - lo] if p >= lo else ""
            if name.startswith("construct.") and not parent_name.startswith("construct."):
                construct_entries += 1
            if name == "ideals._pommaret_raw" and parent_name == "marked_reduction.full_reduce":
                rewrites += 1
        layer_self = {layer: 0.0 for layer in LAYERS if layer != "terms"}
        for name, s in self_by_name.items():
            layer_self[name.partition(".")[0]] += s

        counts = {k: v - counts0[k] for k, v in self.counts.items()}
        out = {f"{layer}.self_s": s for layer, s in layer_self.items()}
        out["construct.calls"] = construct_entries  # calls into the layer from outside
        for key, members in IDEALS_GROUPS.items():
            out[f"ideals.{key}_s"] = sum(self_by_name.get(n, 0.0) for n in members)
        out["ideals.pommaret_calls"] = sum(calls_by_name.get(n, 0)
                                           for n in IDEALS_GROUPS["pommaret"])
        out["linalg.calls"] = calls_by_name.get("linalg.rank", 0)
        out["linalg.pivot_ratio"] = (counts["rank_sum"] / counts["rank_rows"]
                                     if counts["rank_rows"] else 0.0)
        out["marked_reduction.rewrites"] = rewrites
        out["terms.enumerate_calls"] = counts["enumerate_calls"]
        return out

    def write_spans(self, path):
        """Write every span as 'op name parent start end' lines (tab separated)."""
        with open(path, "w") as fh:
            fh.write("# op\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\n")
