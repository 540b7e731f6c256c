"""Linear programming with at most k violations, static and semi-online.

Constraints are non-vertical lines: red lines bound lower halfplanes (a
point strictly above a red line violates it), blue lines bound upper
halfplanes (violated strictly below).  The objective is fixed to the
leftmost valid point; ties resolve to the smaller y.

When it is bounded, the leftmost valid point is a red-blue intersection
of the concave and convex chain covers of the two <=k-levels.  Both paths
collect these with `chain_pair_intersections`, which gives each point as
its primitive homogeneous integer triple (X, Y, W), and the candidates stay
triples: they are deduplicated on them, counted on them in exact integer
side passes (`violation_counts`, a bounded chunk per numpy pass), and
compared on them by cross-multiplication.  A rational is built only for a
reported point.  Unboundedness to the left is decided symbolically from the
line order at x -> -infinity (`scans.FarGaps`).

The dynamic path answers one fixed k.  It layers the lines with the
logarithmic method keyed to the promised deletion times, keeps recent lines
and every line due by the next expensive update (overdue ones included) as
trivial chains in a leftover list, and keeps the candidates with exact
violation counts in a flat table (`parttree`): an update adds +-1 to the
counts on one side of its line in one exact sign pass, appends the
candidates its line makes as one counted batch, and a query takes the
leftmost alive row with a small enough count.  The zero sides of a
counting pass are the live lines through each candidate, and a new line
through an alive candidate replaces its row with one that counts every
line through it; a candidate leaves the table only when the last live red
line or the last live blue line through it goes.  The far-left minimum is
built at the first query after an update.  An expensive update drops the
old table before it builds the new one.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .chains import Chain, ChainKind, ChainPiece, DLine, Direction, \
    chain_decomposition, chain_pair_intersections
from .core import Color, PointR2
from .errors import ScheduleViolation, UnknownId, check_k
from .parttree import PartitionForest, PTPoint
from .rat import Rat, RatT
from .scans import FarGaps, LineSet, least_mis, line_sides, point_columns


@dataclass(frozen=True)
class ConstraintSet:
    red: list[DLine]    # lower-halfplane boundaries
    blue: list[DLine]   # upper-halfplane boundaries

    @cached_property
    def lines(self) -> LineSet:
        """red + blue, the red lines counted below: shared by every sweep
        of the static solvers."""
        return LineSet(self.red, self.blue)


class LPStatus(enum.Enum):
    FEASIBLE = "feasible"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    point: Optional[PointR2] = None
    violations: Optional[int] = None
    reason: Optional[str] = None    # e.g. "empty-side" for the convention case


# side-of-line entries per numpy pass of violation_counts
COUNT_CHUNK = 1 << 12


def _sides_and_counts(pcols, lines: LineSet):
    """Per bounded chunk of the points with `scans.point_columns` pcols,
    one numpy pass: the chunk's first index, its `scans.line_sides` array
    against red + blue (the lines, red first), and each of its points'
    violations (red lines strictly below it, blue lines strictly above)."""
    cols, nr = lines.cols, lines.nb
    step = max(1, COUNT_CHUNK // max(1, len(cols[0])))
    for i in range(0, len(pcols[0]), step):
        sides = line_sides(cols, tuple(h[i:i + step] for h in pcols))
        yield i, sides, (np.count_nonzero(sides[:, :nr] > 0, axis=1)
                         + np.count_nonzero(sides[:, nr:] < 0, axis=1)).tolist()


def violation_counts(points: Sequence[tuple[int, int, int]], lines: LineSet
                     ) -> list[int]:
    """Violations of each homogeneous integer point (X, Y, W), W > 0: the
    red lines (the lines' below-lines) strictly below it plus the blue
    lines strictly above it."""
    return [v for _, _, counts in
            _sides_and_counts(point_columns(points), lines) for v in counts]


def violations_at(p: PointR2, red: Sequence[DLine], blue: Sequence[DLine]) -> int:
    """The violations of p = (r/q, t/s), counted at (r*s, t*q, q*s)."""
    q, s = p.x.denominator, p.y.denominator
    return violation_counts([(p.x.numerator * s, p.y.numerator * q, q * s)],
                            LineSet(red, blue))[0]


def far_left_min(lines: LineSet) -> int:
    """Minimum violation count over the far-left gaps of red + blue."""
    return min(FarGaps(lines, -1).mis)


# ---------------------------------------------------------------------------
# Chromatic ply structures
# ---------------------------------------------------------------------------


class PlyStructure:
    """Interval start/end lists induced on a host chain by opposing chains.

    For a point p on the host chain, ply(p) = number of opposing chains
    strictly on their violating side of p = intervals ending strictly before
    p.x, plus intervals starting strictly after p.x, plus opposing chains
    whose interval is empty.
    """

    def __init__(self, host: Chain, opposing: Sequence[Chain]):
        self.starts: list[RatT] = []    # finite interval starts
        self.ends: list[RatT] = []      # finite interval ends
        self.empty = 0                  # chains always on the violating side
        host_concave = host.kind is ChainKind.CONCAVE
        for opp in opposing:
            iv = _safe_interval(host, opp, host_concave)
            if iv is None:
                self.empty += 1
                continue
            lo, hi = iv
            if lo is not None:
                self.starts.append(lo)
            if hi is not None:
                self.ends.append(hi)
        self.starts.sort()
        self.ends.sort()

    def ply(self, x: RatT) -> int:
        ends_before = bisect.bisect_left(self.ends, x)
        starts_after = len(self.starts) - bisect.bisect_right(self.starts, x)
        return self.empty + ends_before + starts_after


def _safe_interval(host: Chain, opp: Chain, host_concave: bool):
    """x-interval where the opposing chain is NOT strictly on its violating
    side of the host: {g >= 0} for the concave gap function g."""
    if host_concave:
        g_concave, g_convex = host, opp      # g = host - opp
    else:
        g_concave, g_convex = opp, host      # g = opp - host
    roots = chain_pair_intersections(g_concave, g_convex)

    def g(x: RatT) -> RatT:
        return g_concave.value_at(x) - g_convex.value_at(x)

    xs = [Rat(X, W) for X, _, W in roots]
    if not xs:
        return (None, None) if g(Rat(0)) >= 0 else None
    probes = [xs[0] - 1] + [(a + b) / 2 for a, b in zip(xs, xs[1:])] \
        + [xs[-1] + 1]
    signs = [g(x) > 0 for x in probes]
    # concave g: the nonnegative region is one interval
    if not any(signs):
        # only touching roots; interval degenerates to a point (choose first)
        return (xs[0], xs[0])
    first = signs.index(True)
    last = len(signs) - 1 - signs[::-1].index(True)
    lo = None if first == 0 else xs[first - 1]
    hi = None if last == len(signs) - 1 else xs[last]
    return (lo, hi)


# ---------------------------------------------------------------------------
# Static solvers
# ---------------------------------------------------------------------------


def _chain_candidates(
    red_chains: Sequence[Chain], blue_chains: Sequence[Chain]
) -> list[tuple[int, int, int]]:
    """The distinct intersections of the red with the blue chains, as
    primitive homogeneous triples (one per point), in order of first
    appearance."""
    return list(dict.fromkeys(p for cr in red_chains for cb in blue_chains
                              for p in chain_pair_intersections(cr, cb)))


def _xy_before(p: tuple[int, int, int], q: tuple[int, int, int]) -> bool:
    """The point p = (X, Y, W) comes strictly before q in (x, y) order:
    both scaled by W_p*W_q > 0, so compared on integers."""
    return (p[0] * q[2], p[1] * q[2]) < (q[0] * p[2], q[1] * p[2])


def static_leftmost_valid(cs: ConstraintSet, k: int) -> LPResult:
    """Leftmost point violating at most k constraints."""
    check_k(k)
    if not cs.red or not cs.blue:
        return LPResult(LPStatus.UNBOUNDED, reason="empty-side")
    if far_left_min(cs.lines) <= k:
        return LPResult(LPStatus.UNBOUNDED)
    red_chains = chain_decomposition(cs.red, k, Direction.LOWER).chains
    blue_chains = chain_decomposition(cs.blue, k, Direction.UPPER).chains
    pts = _chain_candidates(red_chains, blue_chains)
    best = None
    for p, v in zip(pts, violation_counts(pts, cs.lines)):
        if v <= k and (best is None or _xy_before(p, best[0])):
            best = (p, v)
    if best is None:
        return LPResult(LPStatus.INFEASIBLE)
    (X, Y, W), v = best
    return LPResult(LPStatus.FEASIBLE, PointR2(Rat(X, W), Rat(Y, W)), v)


def static_min_violations(cs: ConstraintSet) -> tuple[int, LPResult]:
    """Smallest k with a non-infeasible answer, plus that answer.  Below
    the far-left minimum it is the least violation count of a vertex (the
    leftmost valid point is then a red-blue vertex), found by vertex scans
    whose cap doubles up to that minimum (`scans.least_mis`)."""
    if not cs.red or not cs.blue:
        return 0, LPResult(LPStatus.UNBOUNDED, reason="empty-side")
    k_min = least_mis([cs.lines], far_left_min(cs.lines))
    return k_min, static_leftmost_valid(cs, k_min)


# ---------------------------------------------------------------------------
# Semi-online dynamic structure
# ---------------------------------------------------------------------------


def check_schedule(delete_at: dict[int, Optional[int]], u: int, id_: int,
                   inserting: bool, due: Optional[int] = None) -> None:
    """Deletion contract for update u + 1 of a semi-online structure whose
    live ids are the keys of delete_at, mapped to their promised times.

    An insertion needs a new id, and its promised time `due`, if any, must
    be after u + 1.  A deletion needs a live id with a promised time at or
    before u + 1: late is legal, early or unpromised is not.  Raises
    UnknownId or ScheduleViolation; changes nothing.
    """
    if inserting:
        if id_ in delete_at:
            raise UnknownId(f"line id {id_} already live")
        if due is not None and due <= u + 1:
            raise ScheduleViolation(
                f"deletion time {due} not after insertion update {u + 1}"
            )
        return
    if id_ not in delete_at:
        raise UnknownId(f"no live line {id_}")
    da = delete_at[id_]
    if da is None or da > u + 1:
        raise ScheduleViolation(
            f"line {id_} deleted at update {u + 1}, promised {da}"
        )


@dataclass
class _Layer:
    lines: list[DLine]
    chains: list[Chain]     # the chain cover of the lines' <=k-level


def _trivial_chain(line: DLine, kind: ChainKind) -> Chain:
    return Chain(kind, [ChainPiece(line, None, None)])


class DynState:
    """Semi-online LP-with-violations state for one fixed k.

    Updates are numbered 1, 2, ... in arrival order.  An insertion may carry
    the update index at which its deletion is promised; it must be later
    than the insertion's own index.  A deletion may arrive at or after its
    promised update, but never before.  An early deletion, or the deletion
    of a line inserted without a promised time, raises ScheduleViolation
    and leaves the state unchanged.

    A candidate leaves the table only when the last live red line or the
    last live blue line through it is deleted: the lines through it are the
    zero sides of the exact pass that counts its violations.  So it stays
    while it is a red-blue vertex of live lines, also where three meet.

    Single writer; queries are read-only between updates.
    """

    def __init__(self, cs: ConstraintSet, schedule: dict[int, Optional[int]],
                 k: int):
        check_k(k)
        self.k = k
        self.live: dict[int, tuple[DLine, Color]] = {}
        self.delete_at: dict[int, Optional[int]] = {}
        self.u = 0
        self.updates_since_init = 0
        self.stats = {"expensive_updates": 0, "full_rebuilds": 0}
        self._far: Optional[tuple[bool, int]] = None
        for color, lines in ((Color.RED, cs.red), (Color.BLUE, cs.blue)):
            for l in lines:
                self.live[l.id] = (l, color)
                self.delete_at[l.id] = schedule.get(l.id)
        self._full_init()

    # -- bookkeeping ---------------------------------------------------------

    def _lines(self, color: Color) -> list[DLine]:
        return [l for l, c in self.live.values() if c is color]

    def _full_init(self) -> None:
        # cadence: the power of two at or above k * ceil(log2 n)
        logn = max(1, math.ceil(math.log2(max(len(self.live), 2))))
        self.cadence = 1 << max(0, (max(self.k, 1) * logn - 1).bit_length())
        self.layers: dict[Color, dict[int, _Layer]] = {
            Color.RED: {}, Color.BLUE: {}
        }
        self.leftover: dict[Color, dict[int, DLine]] = {
            Color.RED: {}, Color.BLUE: {}
        }
        self._distribute(list(self.live), upto=None)
        self.updates_since_init = 0
        self.stats["full_rebuilds"] += 1
        self._rebuild_candidates()

    def _build_layer(self, lines: list[DLine], color: Color) -> _Layer:
        direction = Direction.LOWER if color is Color.RED else Direction.UPPER
        cover = chain_decomposition(lines, self.k, direction)
        return _Layer(lines, cover.chains)

    def _distribute(self, ids: list[int], upto: Optional[int]) -> None:
        """Place the given live line ids into leftover + layers by their
        remaining time to deletion d; layers above `upto` are untouched.

        The leftover list takes every line that may be deleted at or before
        the next expensive update: the overdue ones (d <= 0) and those due
        within the current cadence block.  It has no size cap.  Any other
        line goes to layer i with 2^i < d <= 2^(i+1), clamped to
        [log2(cadence), upto], so it is due strictly after that layer's next
        flush.
        """
        horizon = self.cadence - self.u % self.cadence   # to next expensive update
        lowest = self.cadence.bit_length() - 1
        entries = []
        for id_ in ids:
            if id_ not in self.live:
                continue
            da = self.delete_at[id_]
            entries.append((float("inf") if da is None else da - self.u, id_))
        entries.sort(key=lambda t: (t[0], t[1]))
        for color in (Color.RED, Color.BLUE):
            self.leftover[color] = {}
        buckets: dict[tuple[Color, int], list[DLine]] = {}
        for d, id_ in entries:
            line, color = self.live[id_]
            if d <= horizon:
                self.leftover[color][id_] = line
                continue
            idx = 62 if d == float("inf") else math.ceil(math.log2(d)) - 1
            idx = max(idx, lowest)
            if upto is not None:
                idx = min(idx, upto)
            buckets.setdefault((color, idx), []).append(line)
        for (color, idx), lines in buckets.items():
            self.layers[color][idx] = self._build_layer(lines, color)

    # -- candidate set I and its table -----------------------------------------

    def _all_chains(self, color: Color) -> list[Chain]:
        kind = ChainKind.CONCAVE if color is Color.RED else ChainKind.CONVEX
        out = [
            _trivial_chain(l, kind) for l in self.leftover[color].values()
        ]
        for layer in self.layers[color].values():
            out.extend(layer.chains)
        return out

    def _candidates(self, found: list[tuple[int, int, int]],
                    replace: bool = False):
        """The table rows for the points, given as homogeneous triples, with
        their violation counts against the live lines, and their
        `scans.point_columns`.  A row's payload is [red, blue]: how many
        live red and blue lines pass through it (the zero sides of the
        counting pass), and points_by_line files it under each of those
        lines.  With `replace` (an insert), a point with a third live line
        through it may be an alive row already, filed under one of those
        lines: that row is deleted, as the new row holds all of its lines."""
        ls = LineSet(self._lines(Color.RED), self._lines(Color.BLUE))
        lines = ls.lines
        pcols = point_columns(found)
        pts: list[PTPoint] = []
        for base, sides, counts in _sides_and_counts(pcols, ls):
            on = sides == 0
            for i in np.flatnonzero((on.sum(axis=1) > 2) & replace):
                old = next((p for j in np.flatnonzero(on[i]) for p in
                            self.points_by_line.get(lines[j].id, ())
                            if p.alive and p.xyw == found[base + i]), None)
                if old is not None:
                    self.forest.delete(old)
            pts.extend(PTPoint(xyw, cnt, payload=[0, 0])
                       for xyw, cnt in zip(found[base:], counts))
            rows, cols = np.nonzero(on)
            for i, j in zip(rows.tolist(), cols.tolist()):
                pt = pts[base + i]
                pt.payload[j >= ls.nb] += 1
                self.points_by_line.setdefault(lines[j].id, []).append(pt)
        return pts, pcols

    def _rebuild_candidates(self) -> None:
        # free the old candidates first: the old and the new table are
        # never held at once
        self.forest, self.points_by_line = None, {}
        self.forest = PartitionForest(*self._candidates(_chain_candidates(
            self._all_chains(Color.RED), self._all_chains(Color.BLUE))))

    # -- updates ----------------------------------------------------------------

    def insert(self, line: DLine, color: Color, delete_at: Optional[int]) -> None:
        check_schedule(self.delete_at, self.u, line.id, inserting=True,
                       due=delete_at)
        self.u += 1
        self.updates_since_init += 1
        self._far = None
        self.live[line.id] = (line, color)
        self.delete_at[line.id] = delete_at
        self.leftover[color][line.id] = line
        # all counts of existing candidates shift where the new line is violated
        self.forest.halfplane_update(line, above=(color is Color.RED), delta=+1)
        kind = ChainKind.CONCAVE if color is Color.RED else ChainKind.CONVEX
        new = [_trivial_chain(line, kind)]
        opp = self._all_chains(color.other())
        found = (_chain_candidates(new, opp) if color is Color.RED
                 else _chain_candidates(opp, new))
        pts, pcols = self._candidates(found, replace=True)
        self.forest.insert(*pts, cols=pcols)
        self._maybe_expensive()

    def delete(self, id_: int) -> None:
        check_schedule(self.delete_at, self.u, id_, inserting=False)
        line, color = self.live[id_]
        da = self.delete_at[id_]
        self.u += 1
        self.updates_since_init += 1
        self._far = None
        # the leftover list holds every line due by the next expensive update
        if id_ not in self.leftover[color]:
            raise AssertionError(
                f"line {id_} due at {da} is not in the leftover list "
                f"at update {self.u}"
            )
        del self.leftover[color][id_]
        del self.live[id_]
        del self.delete_at[id_]
        slot = color is Color.BLUE      # this colour's payload entry
        for pt in self.points_by_line.pop(id_, []):
            pt.payload[slot] -= 1
            if pt.alive and not pt.payload[slot]:
                self.forest.delete(pt)
        self.forest.halfplane_update(line, above=(color is Color.RED), delta=-1)
        self._maybe_expensive()

    def _maybe_expensive(self) -> None:
        if len(self.live) and self.updates_since_init > 2 * len(self.live):
            self._full_init()
            return
        if self.u % self.cadence != 0:
            return
        self.stats["expensive_updates"] += 1
        # flush the leftover and every layer whose block ends here: those of
        # index <= v2(u), which is at least log2(cadence)
        upto = (self.u & -self.u).bit_length() - 1
        moved = []
        for color in (Color.RED, Color.BLUE):
            moved.extend(self.leftover[color].keys())
            for idx in [i for i in self.layers[color] if i <= upto]:
                moved.extend(l.id for l in self.layers[color][idx].lines)
                del self.layers[color][idx]
        self._distribute(moved, upto=upto)
        self._rebuild_candidates()

    # -- queries ------------------------------------------------------------------

    def query(self, kq: Optional[int] = None) -> LPResult:
        kq = self.k if kq is None else kq
        check_k(kq)
        if kq > self.k:
            raise ValueError(f"query k'={kq} exceeds structure k={self.k}")
        if self._far is None:     # the live lines changed since it was built
            red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
            both = bool(red and blue)
            self._far = both, far_left_min(LineSet(red, blue)) if both else 0
        both, far_min = self._far
        if not both:
            return LPResult(LPStatus.UNBOUNDED, reason="empty-side")
        if far_min <= kq:
            return LPResult(LPStatus.UNBOUNDED)
        pt = self.forest.leftmost_valid(kq)
        if pt is None:
            return LPResult(LPStatus.INFEASIBLE)
        return LPResult(LPStatus.FEASIBLE, PointR2(pt.x, pt.y), pt.count)

    # -- audits ---------------------------------------------------------------

    def audit(self) -> None:
        """Verify the candidate table, layer survival promises and leftover
        membership.

        The table's rows agree with its points (`PartitionForest.audit`).
        Every alive candidate lies on a live red and a live blue line, and
        its count equals an exact recount against the live lines.  Every
        live line sits in exactly one place: the leftover list or one layer
        of its colour.  A layer line is due strictly after that layer's next
        flush, so every overdue line, and every line due at or before its
        layer's next flush, is in the leftover list.
        """
        self.forest.audit()
        pts = self.forest.alive_points()
        if any(min(p.payload) < 1 for p in pts):
            raise AssertionError("an alive candidate lost its red or blue line")
        want = violation_counts([p.xyw for p in pts], LineSet(
            self._lines(Color.RED), self._lines(Color.BLUE)))
        for p, v in zip(pts, want):
            if p.count != v:
                raise AssertionError(
                    f"candidate ({p.x}, {p.y}) has count {p.count}, "
                    f"recount {v}"
                )
        placed = []     # (id, colour) of every line in the leftover or a layer
        for color in (Color.RED, Color.BLUE):
            placed.extend((id_, color) for id_ in self.leftover[color])
            for idx, layer in self.layers[color].items():
                block = 1 << idx
                if block < self.cadence:
                    raise AssertionError(
                        f"layer {idx} is below the cadence {self.cadence}"
                    )
                flush = self.u + block - self.u % block
                for l in layer.lines:
                    da = self.delete_at.get(l.id)
                    if da is not None and da <= flush:
                        raise AssertionError(
                            f"layer {idx} line {l.id} is due at {da}, "
                            f"not after the layer's next flush at {flush}"
                        )
                    placed.append((l.id, color))
                if len(layer.lines) > 2 * block:
                    raise AssertionError(f"layer {idx} overfull")
        live = {id_: c for id_, (_, c) in self.live.items()}
        if len(placed) != len(live) or dict(placed) != live:
            raise AssertionError(
                "leftover and layers do not partition the live lines"
            )
