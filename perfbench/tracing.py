"""Per-layer tracing by wrapping named library functions.

``Tracer.install`` replaces each traced function with a wrapper, in every
``topograph`` module that holds it (``from .lax import vadd`` copies the
name into the importing module) or on its class.  Nothing under ``src/``
changes, and ``uninstall`` puts the originals back.

For every traced function the wrapper counts calls and self time: the
call's duration minus the time its traced callees took.  Each benchmark
operation opens a span; calls are also counted per enclosing span kind, so
ratios such as pinwheels per rendered vertex are measured where the work
happens.  Spans are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module-qualified names below the topograph package
TRACED = (
    "rings.QRE.__mul__", "rings.QRE.norm", "rings.euclid_gcd", "rings.is_primitive",
    "lax.vadd", "lax.vsub", "lax.neighbors", "lax.normalize_superbase",
    "bqf.BQF.__call__", "bqf.BQF.transform",
    "reduction.find_well", "reduction.gauss_reduced", "reduction.find_river_edge",
    "reduction.trace_river", "reduction.riverbends", "reduction.minimum_nonzero",
    "reduction.pell_solve",
    "classical.reduce_definite", "classical.rho", "classical.indefinite_cycle",
    "classgroup.enumerate_classes", "classgroup.ClassGroupTable.build_table",
    "classgroup.ClassGroupTable.class_index", "classgroup.compose",
    "classgroup.verify_red_blue",
    "diform.pinwheel_complete", "diform.Pinwheel.key", "diform._other_vertex",
    "diform.dicell_values", "diform.diform_well", "diform.diform_river",
    "hermitian.bhf_evaluate", "hermitian.is_ring_superbase", "hermitian.find_cubasis",
    "hermitian.find_tetrabasis", "hermitian.cube_values", "hermitian.empirical_minimum",
    "render.layout", "render.emit_svg",
    "cli.main",
)


def _count_river(tr, args, kwargs, result):
    edges = getattr(result, "edges", None)
    if edges is not None:
        tr.counts["reduction.river_edges"] += max(len(edges) - 1, 0)


def _count_classes(tr, args, kwargs, result):
    tr.counts["classgroup.h_sum"] += result.h


def _count_diriver(tr, args, kwargs, result):
    tr.counts["diform.river_steps"] += len(result.steps)


def _count_layout(tr, args, kwargs, result):
    counts = result.counts()
    for key in ("vertices", "edges", "faces"):
        tr.counts["render." + key] += counts[key]
    geometry = args[0] if args else kwargs.get("geometry")
    tail = "3inf" if geometry == "3inf" else "dilinear"
    tr.counts["render.vertices_" + tail] += counts["vertices"]


def _count_svg(tr, args, kwargs, result):
    tr.counts["render.svg_bytes"] += len(result)


def _count_box(tr, args, kwargs, result):
    box = args[1] if len(args) > 1 else kwargs.get("box", 10)
    tr.counts["hermitian.box_points"] += (2 * box + 1) ** 4 - 1


# counts read off returned values
HOOKS = {
    "reduction.trace_river": _count_river,
    "classgroup.enumerate_classes": _count_classes,
    "diform.diform_river": _count_diriver,
    "render.layout": _count_layout,
    "render.emit_svg": _count_svg,
    "hermitian.empirical_minimum": _count_box,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.by_kind = defaultdict(int)  # (span kind, function) -> calls
        self.counts = defaultdict(int)
        self.spans = []  # (id, family, kind, label, start, end)
        self.absent = []
        self.active = False
        self._kind = None
        self._stack = [0.0]
        self._undo = []

    # --- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for name in TRACED:
            modname, _, attr = name.partition(".")
            owner = sys.modules.get(f"topograph.{modname}")
            if owner is not None and "." in attr:
                cls, _, attr = attr.partition(".")
                owner = getattr(owner, cls, None)
            if isinstance(owner, type):
                fn = vars(owner).get(attr)
            else:
                fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, HOOKS.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] == "topograph" and getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, fn, wrapper)

    def _patch(self, owner, attr, fn, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, by_kind = self.calls, self.self_s, self.by_kind
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
                by_kind[tracer._kind, name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- spans ---------------------------------------------------------------

    def run(self, family: str, kind: str, label: str, call):
        """Run one operation inside a span; exceptions propagate."""
        self._kind = kind
        self._stack[:] = [0.0]
        self.active = True
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self.spans.append((len(self.spans), family, kind, label, t0, t1))

    def kind_calls(self, kinds, name: str) -> int:
        """Calls of name made inside spans of the given kinds."""
        return sum(self.by_kind.get((k, name), 0) for k in kinds)

    def dump(self, path: str) -> None:
        data = {
            "absent": self.absent,
            "functions": {n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                          for n in TRACED},
            "calls_by_span_kind": [[k, f, n] for (k, f), n in sorted(
                self.by_kind.items(), key=lambda it: (str(it[0][0]), it[0][1]))],
            "counts": dict(self.counts),
            "spans": [{"id": i, "family": fam, "kind": kind, "label": label,
                       "start_s": t0, "end_s": t1}
                      for i, fam, kind, label, t0, t1 in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
