"""The benchmark workloads.

Each workload builds its inputs from the seed, sets up its structure, then
runs steps (a static instance, or one stream update with its reads) until
``stop(steps)`` says so.  Only the calls into sepkit are timed; input
generation, correctness checks and shape guards run between the timers.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

from sepkit.approxkmm import ApproxSolver, Infeasible
from sepkit.core import Color, LineR2, Orientation, Separator, classify_mis
from sepkit.errors import VerticalSeparator
from sepkit.exactkmm import ExactSolver
from sepkit.hullmargin import HullPair, StripStatus, max_margin_static
from sepkit.lpviol import ConstraintSet, DynState, LPStatus, static_leftmost_valid
from sepkit.rat import Rat

from gen import LpStream, MarginStream, nearly_separable_points, rng_for
from probe import probe
from spans import OP_PREFIX

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


# Seconds between two runs of the reference probe (probe.py).  The benchmark
# runs it before a timed operation once this much time has passed.
PROBE_EVERY = 0.05


class ShapeError(Exception):
    """The workload did not have the shape that makes it a measurement."""


class Recorder:
    """Timed samples, outcomes and failures of one pass."""

    def __init__(self, tracer=None, profiler=None):
        self.tracer = tracer
        self.profiler = profiler
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op_time = 0.0
        self.steps = 0
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.notes: list[str] = []
        self.shape: Counter = Counter()
        self.probes: list[float] = []
        self._last_probe = float("-inf")

    def timed(self, kind: str, fn, *args, named=()):
        """Run one timed call and keep its duration under ``kind``.

        An exception listed in ``named`` is a documented outcome: it is
        timed and returned as the answer.  Any other exception propagates
        untimed."""
        if time.perf_counter() - self._last_probe >= PROBE_EVERY:
            self.probes.append(probe())
            self._last_probe = time.perf_counter()
        tr, pr = self.tracer, self.profiler
        if tr is not None:
            tr.on = True
        if pr is not None:
            pr.enable()
        t0 = time.perf_counter()
        try:
            if tr is not None:
                out = tr.span(OP_PREFIX + kind, fn, *args)
            else:
                out = fn(*args)
        except named as exc:
            out = exc
        finally:
            dt = time.perf_counter() - t0
            if pr is not None:
                pr.disable()
            if tr is not None:
                tr.on = False
        self.samples[kind].append(dt)
        self.op_time += dt
        return out

    def reference(self, kind: str, fn, *args, named=()):
        """Time a from-scratch reference solve; untraced, and not part of
        the operation time."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except named as exc:
            out = exc
        self.samples[kind].append(time.perf_counter() - t0)
        return out

    def fail(self, wrong: bool, detail: str) -> None:
        if wrong:
            self.wrong += 1
        else:
            self.errors += 1
        if len(self.notes) < 10:
            self.notes.append(detail)

    def check(self, fn, *args) -> None:
        """Run a correctness check; an exception inside it (the reference
        solver's too) counts as a failure instead of ending the run."""
        try:
            fn(self, *args)
        except ShapeError:
            raise
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.fail(False, f"{fn.__qualname__}: {exc!r}")


def _outcome(res) -> str:
    return type(res).__name__ if isinstance(res, Exception) else res.status.value


# ---------------------------------------------------------------------------
# static workloads
# ---------------------------------------------------------------------------


class _Static:
    """One fresh instance per step: the solver build is timed as the update,
    ``solve(k)`` on it as the query.  Subclasses give ``make`` and ``solve``."""

    min_steps = 2
    reference = None
    named: tuple = ()       # documented outcomes of ``solve``

    def inputs(self, seed):
        return seed

    def instance(self, seed, i):
        return nearly_separable_points(rng_for(self.name, seed, i), self.n,
                                       self.outliers)

    def build(self, seed):
        # a static solver has no standing structure: set-up is a solve of a
        # small instance, the fixed cost paid before the first real one
        pts, _ = nearly_separable_points(rng_for(self.name, seed, "warmup"),
                                         self.warmup_n, self.outliers)
        self.solve(self.make(pts))
        return None

    def pins(self, seed) -> list:
        return []

    def run(self, seed, _state, rec: Recorder, stop) -> None:
        pins = self.pins(seed)
        i = 0
        while not stop(rec.steps):
            pts, slope = self.instance(seed, i)
            _guard_feasible(pts, slope, self.k)
            rec.attempted += 1
            try:
                solver = rec.timed("update", self.make, pts)
                rep = rec.timed("query", self.solve, solver, named=self.named)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                rec.fail(False, f"instance {i}: {exc!r}")
            else:
                rec.samples["solve"].append(rec.samples["update"][-1]
                                            + rec.samples["query"][-1])
                pin = pins[i] if i < len(pins) else None
                rec.check(self.check, i, pts, rep, pin)
            i += 1
            rec.steps += 1


class KmmExact(_Static):
    """``ExactSolver(pts, k).solve(k)`` on nearly separable integer points."""

    name = "kmm-exact"
    n, outliers, k, warmup_n = 1000, 5, 8, 200

    def make(self, pts):
        return ExactSolver(pts, self.k)

    def solve(self, solver):
        return solver.solve(self.k)

    def pins(self, seed) -> list:
        with open(PINNED_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(self.name, {}).get(str(seed), [])

    def check(self, rec, i, pts, rep, pin) -> None:
        cands = sum(rep.counts.values())
        rec.shape["candidates"] += cands
        if cands == 0:
            raise ShapeError(f"instance {i} yielded no candidates")
        if rep.best is None:
            rec.fail(True, f"instance {i}: reported infeasible at k={self.k}")
            return
        got = classify_mis(rep.best, pts)
        if rep.mis > self.k or (got.mis, got.max_sq) != (rep.mis, rep.max_sq):
            rec.fail(True, f"instance {i}: reported (mis {rep.mis}, "
                           f"max_sq {rep.max_sq}), recomputed ({got.mis}, {got.max_sq})")
            return
        if pin is not None and [rep.mis, str(rep.max_sq)] != pin:
            rec.fail(True, f"instance {i}: ({rep.mis}, {rep.max_sq}) != pinned {pin}")
            return
        rec.shape["pinned_checked" if pin is not None else "unpinned"] += 1


class KmmApprox(_Static):
    """``ApproxSolver(pts, k, eps).solve(k)`` (that is, ``solve_approx``)
    with eps = 1/10, checked against the exact optimum."""

    name = "kmm-approx"
    n, outliers, k, warmup_n = 100, 3, 4, 30
    eps = Rat(1, 10)
    tol = Rat(1, 10**12)
    named = (Infeasible,)

    def make(self, pts):
        return ApproxSolver(pts, self.k, self.eps)

    def solve(self, solver):
        return solver.solve(self.k, self.tol)

    def check(self, rec, i, pts, rep, _pin) -> None:
        exact = ExactSolver(pts, self.k).solve(self.k)
        if isinstance(rep, Infeasible):
            rec.fail(True, f"instance {i}: Infeasible, exact mis {exact.mis}")
            return
        got = classify_mis(rep.separator, pts)
        if rep.mis > self.k or (got.mis, got.max_sq) != (rep.mis, rep.euclid_max_sq):
            rec.fail(True, f"instance {i}: reported (mis {rep.mis}), recomputed {got.mis}")
            return
        # sandwich Max <= M-hat <= (1+eps) Max, in squares, M-hat exact up to tol
        m_hat_sq = rep.approx_err * rep.approx_err
        hi = (1 + self.eps) ** 2 * (1 + self.tol) ** 2 * exact.max_sq
        if not (exact.max_sq <= m_hat_sq <= hi):
            rec.fail(True, f"instance {i}: M-hat^2 {m_hat_sq} outside "
                           f"[{exact.max_sq}, {hi}]")
            return
        # the reported separator's own error is bounded by M-hat
        if rep.euclid_max_sq > m_hat_sq:
            rec.fail(True, f"instance {i}: separator max_sq {rep.euclid_max_sq} "
                           f"> M-hat^2 {m_hat_sq}")
            return
        rec.shape["sandwich_checked"] += 1


def _guard_feasible(pts, slope, k) -> None:
    """Input-side guard: the generating line misclassifies at most k points,
    so the instance is feasible and the solver must do the full search."""
    gen_sep = Separator(LineR2(Rat(slope), Rat(0)), Orientation.BLUE_ABOVE)
    mis = classify_mis(gen_sep, pts).mis
    if mis > k:
        raise ShapeError(f"instance infeasible by construction check: mis {mis} > k {k}")


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class LpStreamWorkload:
    """Semi-online ``DynState`` with k=8; each update is followed by
    ``query(8)`` and ``query(4)``."""

    name = "lp-stream"
    live, k, k2 = 100, 8, 4
    check_every = 20
    min_steps = 100
    # the from-scratch re-solve each checkpoint times (per-layer metric name)
    reference = "lpviol.static_leftmost_valid.s"

    def inputs(self, seed):
        return LpStream(rng_for(self.name, seed), self.live)

    def build(self, stream):
        return self._state(stream.init, stream.schedule, 0)

    def _state(self, lines, promised, base):
        red = [l for l, c in lines if c is Color.RED]
        blue = [l for l, c in lines if c is Color.BLUE]
        sched = {l.id: promised[l.id] - base for l, _ in lines}
        return DynState(ConstraintSet(red, blue), sched, self.k)

    def run(self, stream, st, rec: Recorder, stop) -> None:
        live = {l.id: (l, c) for l, c in stream.init}
        promised = dict(stream.schedule)
        base = 0            # stream update index at which ``st`` was built
        t = 0
        sizes = []
        while not stop(rec.steps):
            t += 1
            op = stream.next_op(t)
            rec.attempted += 1
            try:
                if op[0] == "insert":
                    _, line, color, due = op
                    rec.timed("update", st.insert, line, color, due - base)
                else:
                    if t > promised[op[1]]:
                        rec.shape["late_deletions"] += 1
                    rec.timed("update", st.delete, op[1])
            except Exception as exc:  # noqa: BLE001 - counted, stream continues
                rec.fail(False, f"update {t} {op[0]} {op[1] if op[0] == 'delete' else op[1].id}: {exc!r}")
                self._apply(op, live, promised)
                st = self._state(list(live.values()), promised, t)
                base = t
                rec.shape["rebuilt_after_error"] += 1
                rec.steps += 1
                continue
            self._apply(op, live, promised)
            sizes.append(len(live))
            answers = {}
            for kq in (self.k, self.k2):
                rec.attempted += 1
                try:
                    answers[kq] = rec.timed("query", st.query, kq)
                except Exception as exc:  # noqa: BLE001
                    rec.fail(False, f"update {t} query({kq}): {exc!r}")
                    continue
                rec.shape[f"k{kq}_{answers[kq].status.value}"] += 1
            if t % self.check_every == 0:
                rec.check(self.check, t, live, answers)
            rec.steps += 1
        if sizes:
            rec.shape["live_min"] = min(sizes)
            rec.shape["live_max"] = max(sizes)

    @staticmethod
    def _apply(op, live, promised) -> None:
        if op[0] == "insert":
            live[op[1].id] = (op[1], op[2])
            promised[op[1].id] = op[3]
        else:
            live.pop(op[1], None)
            promised.pop(op[1], None)

    def check(self, rec, t, live, answers) -> None:
        red = [l for l, c in live.values() if c is Color.RED]
        blue = [l for l, c in live.values() if c is Color.BLUE]
        cs = ConstraintSet(red, blue)
        for kq in (self.k, self.k2):
            if kq == self.k:
                want = rec.reference("solve", static_leftmost_valid, cs, kq)
            else:
                want = static_leftmost_valid(cs, kq)
            got = answers.get(kq)
            if got is None:
                continue
            same = got.status == want.status and (
                got.status is not LPStatus.FEASIBLE
                or (got.point.x, got.point.y, got.violations)
                == (want.point.x, want.point.y, want.violations))
            if not same:
                rec.fail(True, f"update {t} query({kq}): {got} != static {want}")
        rec.shape["checkpoints"] += 1


class MarginStreamWorkload:
    """``HullPair`` over separable points under mixed inserts and deletes,
    reading ``result()`` after each update."""

    name = "margin-stream"
    # Each insert, the constructor's too, recomputes the strip (about 20 ms),
    # so five set-ups of 150 points already take about 15 s of a run.
    live = 150
    check_every = 5
    min_steps = 50
    reference = "hullmargin.max_margin_static.s"

    def inputs(self, seed):
        return MarginStream(rng_for(self.name, seed), self.live)

    def build(self, stream):
        return HullPair(stream.init)

    def run(self, stream, pair, rec: Recorder, stop) -> None:
        live = {p.id: p for p in stream.init}
        hull_min = None
        while not stop(rec.steps):
            op = stream.next_op(list(live))
            rec.attempted += 1
            try:
                if op[0] == "insert":
                    rec.timed("update", pair.insert, op[1], named=(VerticalSeparator,))
                else:
                    rec.timed("update", pair.delete, op[1], named=(VerticalSeparator,))
            except Exception as exc:  # noqa: BLE001 - counted, stream continues
                rec.fail(False, f"{op[0]}: {exc!r}")
                self._apply(op, live)
                pair = HullPair(list(live.values()))
                rec.shape["rebuilt_after_error"] += 1
                rec.steps += 1
                continue
            self._apply(op, live)
            rec.attempted += 1
            try:
                res = rec.timed("query", pair.result, named=(VerticalSeparator,))
            except Exception as exc:  # noqa: BLE001
                rec.fail(False, f"result(): {exc!r}")
                res = None
            if res is not None:
                rec.shape[_outcome(res)] += 1
            if res is not None and rec.steps % self.check_every == 0:
                rec.check(self.check, live, res)
                h = min(len(pair.red.hull()), len(pair.blue.hull()))
                hull_min = h if hull_min is None else min(hull_min, h)
            rec.steps += 1
        if hull_min is not None:
            rec.shape["hull_min"] = hull_min

    @staticmethod
    def _apply(op, live) -> None:
        if op[0] == "insert":
            live[op[1].id] = op[1]
        else:
            live.pop(op[1], None)

    def check(self, rec, live, got) -> None:
        want = rec.reference("solve", max_margin_static, list(live.values()),
                             named=(VerticalSeparator,))
        same = _outcome(got) == _outcome(want) and (
            isinstance(got, Exception) or got.width_sq == want.width_sq)
        if not same:
            rec.fail(True, f"step {rec.steps}: {_outcome(got)} != static {_outcome(want)}")
        rec.shape["checkpoints"] += 1


WORKLOADS = {w.name: w for w in (KmmExact(), KmmApprox(), LpStreamWorkload(),
                                 MarginStreamWorkload())}


def shape_guard(workload, rec: Recorder) -> None:
    """Fail loudly when a pass was too trivial to count as a measurement."""
    if rec.steps < workload.min_steps:
        raise ShapeError(f"only {rec.steps} steps (need {workload.min_steps})")
    s = rec.shape
    if workload.name == "lp-stream":
        if s[f"k{workload.k}_feasible"] < rec.steps // 2:
            raise ShapeError(f"query({workload.k}) was FEASIBLE on only "
                             f"{s[f'k{workload.k}_feasible']} of {rec.steps} updates")
        if s["late_deletions"] == 0:
            raise ShapeError("no late deletion arrived")
        if s["checkpoints"] == 0:
            raise ShapeError("no checkpoint was checked")
    if workload.name == "margin-stream":
        if s[StripStatus.SEPARABLE.value] < rec.steps // 2:
            raise ShapeError("fewer than half of the reads were Separable")
        if s["hull_min"] < 3 or s["checkpoints"] == 0:
            raise ShapeError("hulls degenerate or no checkpoint was checked")
