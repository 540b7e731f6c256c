"""Span tracer for the traced benchmark pass.

The tracer wraps the public entry points each layer is called through (the
names bound in the calling module, or the class methods) so that nothing in
``src/`` changes.  Spans are kept in memory as ``(name, start, end, parent)``
tuples and written out once, at the end of the run.  A layer is the module
under ``src/sepkit/`` that defines the entry point.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (owner, attribute, span name).  The owner is a module path, where the
# attribute is the name that module's code calls, or "module:Class" for a
# method.  The span name is "<layer>.<entry point>".
ENTRY_POINTS = [
    ("sepkit.exactkmm", "scan_vertices", "scans.scan_vertices"),
    ("sepkit.exactkmm", "segment_valid_crossings", "scans.segment_valid_crossings"),
    ("sepkit.approxkmm", "segment_valid_crossings", "scans.segment_valid_crossings"),
    ("sepkit.exactkmm", "ColumnProfile", "scans.ColumnProfile"),
    ("sepkit.approxkmm", "ColumnProfile", "scans.ColumnProfile"),
    ("sepkit.exactkmm", "far_gaps", "scans.far_gaps"),
    ("sepkit.exactkmm", "envelope", "chains.envelope"),
    ("sepkit.lpviol", "chain_decomposition", "chains.chain_decomposition"),
    ("sepkit.lpviol", "chain_pair_intersections", "chains.chain_pair_intersections"),
    ("sepkit.exactkmm:ExactSolver", "__init__", "exactkmm.ExactSolver.build"),
    ("sepkit.exactkmm:ExactSolver", "solve", "exactkmm.ExactSolver.solve"),
    ("sepkit.approxkmm:ApproxSolver", "__init__", "approxkmm.ApproxSolver.build"),
    ("sepkit.approxkmm:ApproxSolver", "solve", "approxkmm.ApproxSolver.solve"),
    ("sepkit.approxkmm", "wedge_optimum", "approxkmm.wedge_optimum"),
    ("sepkit.lpviol:DynState", "insert", "lpviol.DynState.insert"),
    ("sepkit.lpviol:DynState", "delete", "lpviol.DynState.delete"),
    ("sepkit.lpviol:DynState", "query", "lpviol.DynState.query"),
    ("sepkit.lpviol", "violations_at", "lpviol.violations_at"),
    ("sepkit.parttree:PartitionForest", "insert", "parttree.PartitionForest.insert"),
    ("sepkit.parttree:PartitionForest", "delete", "parttree.PartitionForest.delete"),
    ("sepkit.parttree:PartitionForest", "halfplane_update",
     "parttree.PartitionForest.halfplane_update"),
    ("sepkit.parttree:PartitionForest", "leftmost_valid",
     "parttree.PartitionForest.leftmost_valid"),
    ("sepkit.parttree:PartitionForest", "rebuild", "parttree.PartitionForest.rebuild"),
    ("sepkit.parttree:PartitionTree", "__init__", "parttree.PartitionTree.build"),
    ("sepkit.hullmargin:HullPair", "insert", "hullmargin.HullPair.insert"),
    ("sepkit.hullmargin:HullPair", "delete", "hullmargin.HullPair.delete"),
    ("sepkit.hullmargin:HullPair", "result", "hullmargin.HullPair.result"),
    ("sepkit.hullmargin", "convex_hull", "hullmargin.convex_hull"),
    ("sepkit.hullmargin", "hulls_intersect", "hullmargin.hulls_intersect"),
    ("sepkit.hullmargin", "hull_distance", "hullmargin.hull_distance"),
]

LAYERS = ("scans", "chains", "exactkmm", "approxkmm", "lpviol", "parttree",
          "hullmargin")

# Spans the benchmark itself opens around each timed operation; they are the
# roots that layer spans are measured against.
OP_PREFIX = "op."


class Tracer:
    """In-memory span recorder; off until ``on`` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, self.clock(), parent)
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a no-op span when off)."""
        if not self.on:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name: str, n: float = 1) -> None:
        if self.on:
            self.counts[name] += n

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct child spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = _union_length(children.get(idx, ()), start, end)
        out.append((end - start) - covered)
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _resolve(owner: str):
    import importlib

    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point in ENTRY_POINTS; returns what ``uninstall``
    needs to restore the originals."""
    saved = []
    for owner, attr, name in ENTRY_POINTS:
        target = _resolve(owner)
        original = getattr(target, attr)
        saved.append((target, attr, original))
        setattr(target, attr, _wrap(tracer, name, original))
    return saved


def uninstall(saved) -> None:
    for target, attr, original in reversed(saved):
        setattr(target, attr, original)


def _wrap(tracer: Tracer, name: str, fn):
    hook = _COUNT_HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        before = hook[0](args) if hook else None
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook:
            hook[1](tracer, args, result, before)
        return result

    return wrapper


def _scan_counts(tracer, args, res, _):
    tracer.count("scans.vertices_scanned", res.count)
    tracer.count("scans.vertices_kept", len(res.vertices))


def _exact_counts(tracer, args, rep, _):
    for kind, n in rep.counts.items():
        tracer.count(f"exactkmm.candidates.{kind}", n)


def _approx_build_counts(tracer, args, _res, _before):
    tracer.count("approxkmm.wedges", len(args[0].frames))


def _dyn_stats(args):
    return dict(args[0].stats)


def _dyn_stat_counts(tracer, args, _res, before):
    for key, value in args[0].stats.items():
        tracer.count(f"lpviol.{key}", value - before[key])


def _forest_crossings(args):
    return args[0].crossings


def _crossing_counts(tracer, args, _res, before):
    tracer.count("parttree.crossings", args[0].crossings - before)


def _forest_size(args):
    return len(args[0])


def _candidate_counts(tracer, args, _res, size):
    tracer.count("parttree.candidates", size)


def _hull_sizes(tracer, args, _res, _before):
    tracer.count("hullmargin.hull_size", (len(args[0]) + len(args[1])) / 2)


def _nothing(args):
    return None


# span name -> (taken before the call, recorded after it)
_COUNT_HOOKS = {
    "scans.scan_vertices": (_nothing, _scan_counts),
    "exactkmm.ExactSolver.solve": (_nothing, _exact_counts),
    "approxkmm.ApproxSolver.build": (_nothing, _approx_build_counts),
    "lpviol.DynState.insert": (_dyn_stats, _dyn_stat_counts),
    "lpviol.DynState.delete": (_dyn_stats, _dyn_stat_counts),
    "parttree.PartitionForest.halfplane_update": (_forest_crossings, _crossing_counts),
    "parttree.PartitionForest.leftmost_valid": (_forest_size, _candidate_counts),
    "hullmargin.hull_distance": (_nothing, _hull_sizes),
}

# Per-layer metrics, in BENCHMARK.json order.  Units: "s/op" is seconds of
# inclusive span time per workload step (a static instance, or a stream
# update with its reads), "1/op" calls per step, "count/op" a counter per
# step; a share is of the traced operation wall time.
PER_LAYER = [
    ("scans.scan_vertices.s", "s/op"),
    ("scans.scan_vertices.calls", "1/op"),
    ("scans.vertices_scanned", "count/op"),
    ("scans.vertices_kept", "count/op"),
    ("scans.keep_ratio", "ratio"),
    ("scans.segment_valid_crossings.s", "s/op"),
    ("scans.ColumnProfile.s", "s/op"),
    ("scans.far_gaps.s", "s/op"),
    ("scans.self_share", "share"),
    ("chains.envelope.s", "s/op"),
    ("chains.chain_decomposition.s", "s/op"),
    ("chains.chain_decomposition.calls", "1/op"),
    ("chains.chain_pair_intersections.s", "s/op"),
    ("chains.chain_pair_intersections.calls", "1/op"),
    ("chains.self_share", "share"),
    ("exactkmm.ExactSolver.build.s", "s/op"),
    ("exactkmm.ExactSolver.solve.s", "s/op"),
    ("exactkmm.candidates.a", "count/op"),
    ("exactkmm.candidates.b", "count/op"),
    ("exactkmm.candidates.c", "count/op"),
    ("exactkmm.candidates.d", "count/op"),
    ("exactkmm.self_share", "share"),
    ("approxkmm.ApproxSolver.build.s", "s/op"),
    ("approxkmm.ApproxSolver.solve.s", "s/op"),
    ("approxkmm.wedge_optimum.s", "s/op"),
    ("approxkmm.wedges", "count/op"),
    ("approxkmm.self_share", "share"),
    ("lpviol.DynState.insert.s", "s/op"),
    ("lpviol.DynState.delete.s", "s/op"),
    ("lpviol.DynState.query.s", "s/op"),
    ("lpviol.violations_at.s", "s/op"),
    ("lpviol.violations_at.calls", "1/op"),
    ("lpviol.expensive_updates", "count/op"),
    ("lpviol.full_rebuilds", "count/op"),
    ("lpviol.static_leftmost_valid.s", "s"),
    ("lpviol.self_share", "share"),
    ("parttree.PartitionForest.insert.s", "s/op"),
    ("parttree.PartitionForest.delete.s", "s/op"),
    ("parttree.PartitionForest.halfplane_update.s", "s/op"),
    ("parttree.PartitionForest.leftmost_valid.s", "s/op"),
    ("parttree.PartitionForest.rebuild.s", "s/op"),
    ("parttree.PartitionTree.build.s", "s/op"),
    ("parttree.crossings", "count/op"),
    ("parttree.candidates", "count"),
    ("parttree.self_share", "share"),
    ("hullmargin.HullPair.insert.s", "s/op"),
    ("hullmargin.HullPair.delete.s", "s/op"),
    ("hullmargin.HullPair.result.s", "s/op"),
    ("hullmargin.convex_hull.s", "s/op"),
    ("hullmargin.convex_hull.calls", "1/op"),
    ("hullmargin.hulls_intersect.s", "s/op"),
    ("hullmargin.hull_distance.s", "s/op"),
    ("hullmargin.max_margin_static.s", "s"),
    ("hullmargin.hull_size", "count"),
    ("hullmargin.self_share", "share"),
    ("rat.fractions_self_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.uncovered_share", "share"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, steps: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (see PER_LAYER for units).

    Inclusive span seconds and call counts per entry point and the counters
    are divided by ``steps``; each layer's self time and the time outside
    every layer span (``trace.uncovered_share``) are shares of the wall time
    of the benchmark's own operation spans.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    op_wall = op_uncovered = 0.0
    for (name, start, end, _parent), own in zip(spans, selfs):
        if name.startswith(OP_PREFIX):
            op_wall += end - start
            op_uncovered += own
            continue
        incl[name] += end - start
        calls[name] += 1
        layer_self[layer_of(name)] += own
    out: dict[str, float] = {}
    for _, _, name in ENTRY_POINTS:
        out[f"{name}.s"] = incl[name] / steps
        out[f"{name}.calls"] = calls[name] / steps
    for name, value in tracer.counts.items():
        out[name] = value / steps
    c = tracer.counts
    out["scans.keep_ratio"] = _ratio(c["scans.vertices_kept"], c["scans.vertices_scanned"])
    out["parttree.candidates"] = _ratio(
        c["parttree.candidates"], calls["parttree.PartitionForest.leftmost_valid"])
    out["hullmargin.hull_size"] = _ratio(
        c["hullmargin.hull_size"], calls["hullmargin.hull_distance"])
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(layer_self[layer], op_wall)
    out["trace.uncovered_share"] = _ratio(op_uncovered, op_wall)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
