"""Tests of the benchmark itself: seeded inputs, the tracer's self-time
arithmetic, and the metric lists against BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _points(pts):
    return [(p.point.x, p.point.y, p.color.value, p.id) for p in pts]


def _lp_ops(stream, n):
    out = []
    for t in range(1, n + 1):
        op = stream.next_op(t)
        if op[0] == "insert":
            out.append(("insert", op[1].id, op[1].m, op[1].c, op[2].value, op[3]))
        else:
            out.append(op)
    return out


def _lp_inputs(seed):
    st = workloads.WORKLOADS["lp-stream"].inputs(seed)
    init = [(l.id, l.m, l.c, c.value) for l, c in st.init]
    return init, st.schedule, _lp_ops(st, 600)


def _margin_inputs(seed):
    st = workloads.WORKLOADS["margin-stream"].inputs(seed)
    live = [p.id for p in st.init]
    ops = []
    for _ in range(300):
        op = st.next_op(live)
        if op[0] == "insert":
            live.append(op[1].id)
            ops.append(("insert",) + _points([op[1]])[0])
        else:
            live.remove(op[1])
            ops.append(op)
    return _points(st.init), ops


def _static_inputs(name, seed):
    return [_points(gen.nearly_separable_points(
        gen.rng_for(name, seed, i), 50, 3)[0]) for i in range(3)]


def test_same_seed_same_inputs():
    for seed in (1, 2):
        assert _lp_inputs(seed) == _lp_inputs(seed)
        assert _margin_inputs(seed) == _margin_inputs(seed)
        for name in ("kmm-exact", "kmm-approx"):
            assert _static_inputs(name, seed) == _static_inputs(name, seed)
        wl = workloads.WORKLOADS["kmm-exact"]
        assert _points(wl.instance(seed, 0)[0]) == _points(wl.instance(seed, 0)[0])


def test_different_seed_different_inputs():
    assert _lp_inputs(1) != _lp_inputs(2)
    assert _margin_inputs(1) != _margin_inputs(2)
    for name in ("kmm-exact", "kmm-approx"):
        assert _static_inputs(name, 1) != _static_inputs(name, 2)


def test_lp_stream_deletions_are_never_early_and_some_are_late():
    st = workloads.WORKLOADS["lp-stream"].inputs(3)
    promised = dict(st.schedule)
    late = 0
    for t in range(1, 2000):
        op = st.next_op(t)
        if op[0] == "insert":
            assert op[3] > t
            promised[op[1].id] = op[3]
        else:
            assert promised[op[1]] <= t
            late += promised.pop(op[1]) < t
    assert late > 0


class _Clock:
    """Fake clock returning the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # op [0, 10] holds A [1, 6] and D [7, 9]; A holds B [2, 3] and C [4, 5]
    tr = spans.Tracer(clock=_Clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    op = tr.begin("op.update")
    a = tr.begin("scans.a")
    b = tr.begin("chains.b")
    tr.end(b)
    c = tr.begin("chains.c")
    tr.end(c)
    tr.end(a)
    d = tr.begin("lpviol.d")
    tr.end(d)
    tr.end(op)
    assert spans.self_times(tr.spans) == [3, 3, 1, 1, 2]

    s = spans.summarize(tr, steps=2)
    assert s["scans.self_share"] == 0.3
    assert s["chains.self_share"] == 0.2
    assert s["lpviol.self_share"] == 0.2
    assert s["trace.uncovered_share"] == 0.3


def test_self_time_counts_overlapping_children_once():
    recorded = [
        ("op.query", 0.0, 10.0, -1),
        ("scans.x", 1.0, 5.0, 0),
        ("scans.y", 3.0, 8.0, 0),    # overlaps x on [3, 5]
        ("scans.z", 9.0, 12.0, 0),   # runs past its parent; clipped to [9, 10]
    ]
    assert spans.self_times(recorded) == [2.0, 4.0, 5.0, 3.0]


def test_wrappers_record_spans_only_while_on_and_restore():
    import sepkit.exactkmm as ek

    original = ek.scan_vertices
    tr = spans.Tracer()
    saved = spans.install(tr)
    try:
        assert ek.scan_vertices is not original
        pts, _ = gen.nearly_separable_points(gen.rng_for("t", 0), 20, 1)
        ek.ExactSolver(pts, 2)
        assert tr.spans == []
        tr.on = True
        ek.ExactSolver(pts, 2).solve(2)
        names = {s[0] for s in tr.spans}
        assert {"exactkmm.ExactSolver.build", "exactkmm.ExactSolver.solve",
                "scans.scan_vertices", "chains.envelope"} <= names
        assert tr.counts["scans.vertices_scanned"] > 0
    finally:
        spans.uninstall(saved)
    assert ek.scan_vertices is original


def test_guarded_pass_runs_past_its_deadline_to_the_minimum_steps():
    wl = workloads.WORKLOADS["kmm-approx"]
    rec = run._pass(wl, 1, seconds=0)
    assert rec.steps == wl.min_steps
    assert rec.wrong == rec.errors == 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kmm-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
