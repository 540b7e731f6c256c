"""Linear programming with at most k violations, static and semi-online.

Constraints are non-vertical lines: red lines bound lower halfplanes (a
point strictly above a red line violates it), blue lines bound upper
halfplanes (violated strictly below).  The objective is fixed to the
leftmost valid point; ties resolve to the smaller y.

When it is bounded, the leftmost valid point is a red-blue intersection
of the concave and convex chain covers of the two <=k-levels.  The static
path enumerates those intersections, counts each one's violations directly
with violations_at (O(n) per candidate), and keeps the leftmost with at
most k.  Unboundedness to the left is decided symbolically from the line
order at x -> -infinity.

The dynamic path layers the lines with the logarithmic method keyed to the
promised deletion times, keeps recent lines and every line due by the next
expensive update (overdue ones included) as trivial chains in a leftover
list, maintains the set I of bichromatic chain intersections with exact
violation counts, and answers queries from a buffered partition-tree forest
over I.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import Chain, ChainKind, ChainPiece, ChainSet, DLine, Direction, \
    chain_decomposition, chain_pair_intersections
from .core import Color, PointR2
from .errors import ScheduleViolation, UnknownId
from .parttree import PartitionForest, PTPoint
from .rat import Rat, RatT
from .scans import far_order, gap_mis


@dataclass(frozen=True)
class ConstraintSet:
    red: list[DLine]    # lower-halfplane boundaries
    blue: list[DLine]   # upper-halfplane boundaries


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


def violations_at(p: PointR2, red: Sequence[DLine], blue: Sequence[DLine]) -> int:
    v = 0
    for l in red:
        if l.y_at(p.x) < p.y:
            v += 1
    for l in blue:
        if l.y_at(p.x) > p.y:
            v += 1
    return v


def far_left_min(red: Sequence[DLine], blue: Sequence[DLine]) -> int:
    """Minimum violation count over the far-left gaps."""
    return min(gap_mis(far_order(red, blue, -1)))


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
        import bisect

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

    xs = [x for x, _ in roots]
    probes: list[tuple[Optional[RatT], RatT]] = []
    if not xs:
        sign = g(Rat(0))
        return (None, None) if sign >= 0 else None
    probes.append((None, xs[0] - 1))
    for a, b in zip(xs, xs[1:]):
        probes.append((None, (a + b) / 2))
    probes.append((None, xs[-1] + 1))
    signs = [g(p[1]) > 0 for p in probes]
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
) -> list[PointR2]:
    pts = []
    seen = set()
    for cr in red_chains:
        for cb in blue_chains:
            for x, y in chain_pair_intersections(cr, cb):
                if (x, y) not in seen:
                    seen.add((x, y))
                    pts.append(PointR2(x, y))
    return pts


def static_leftmost_valid(cs: ConstraintSet, k: int) -> LPResult:
    """Leftmost point violating at most k constraints."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not cs.red or not cs.blue:
        return LPResult(LPStatus.UNBOUNDED, reason="empty-side")
    if far_left_min(cs.red, cs.blue) <= k:
        return LPResult(LPStatus.UNBOUNDED)
    kk = min(k, len(cs.red) + len(cs.blue))
    red_chains = chain_decomposition(cs.red, kk, Direction.LOWER).chains
    blue_chains = chain_decomposition(cs.blue, kk, Direction.UPPER).chains
    best = None
    for p in _chain_candidates(red_chains, blue_chains):
        v = violations_at(p, cs.red, cs.blue)
        if v <= k:
            key = (p.x, p.y)
            if best is None or key < best[0]:
                best = (key, p, v)
    if best is None:
        return LPResult(LPStatus.INFEASIBLE)
    _, p, v = best
    return LPResult(LPStatus.FEASIBLE, p, v)


def static_min_violations(cs: ConstraintSet) -> tuple[int, LPResult]:
    """Smallest k with a non-infeasible answer, plus that answer."""
    if not cs.red or not cs.blue:
        return 0, LPResult(LPStatus.UNBOUNDED, reason="empty-side")
    gap_min = far_left_min(cs.red, cs.blue)
    n = len(cs.red) + len(cs.blue)
    k_guess = 1
    vertex_min = None
    while True:
        kk = min(k_guess, n)
        red_chains = chain_decomposition(cs.red, kk, Direction.LOWER).chains
        blue_chains = chain_decomposition(cs.blue, kk, Direction.UPPER).chains
        vals = [
            violations_at(p, cs.red, cs.blue)
            for p in _chain_candidates(red_chains, blue_chains)
        ]
        vals = [v for v in vals if v <= kk]
        if vals:
            vertex_min = min(vals)
            break
        if kk >= n:
            break
        k_guess *= 2
    k_min = gap_min if vertex_min is None else min(gap_min, vertex_min)
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
    index: int
    lines: list[DLine]
    chainsets: dict[int, ChainSet]   # level -> decomposition (built at creation)

    def chains_for(self, k_active: int) -> list[Chain]:
        if not self.lines:
            return []
        best = min((lv for lv in self.chainsets if lv >= k_active),
                   default=max(self.chainsets))
        return self.chainsets[best].chains


def _trivial_chain(line: DLine, kind: ChainKind) -> Chain:
    return Chain(kind, [ChainPiece(line, None, None)])


class DynState:
    """Semi-online LP-with-violations state.

    Updates are numbered 1, 2, ... in arrival order.  An insertion may carry
    the update index at which its deletion is promised; it must be later
    than the insertion's own index.  A deletion may arrive at or after its
    promised update, but never before.  An early deletion, or the deletion
    of a line inserted without a promised time, raises ScheduleViolation
    and leaves the state unchanged.

    Single writer; queries are read-only between updates.
    """

    def __init__(
        self,
        cs: ConstraintSet,
        schedule: dict[int, Optional[int]],
        k: int,
        kmin_mode: bool = False,
    ):
        self.k = k
        self.kmin_mode = kmin_mode
        self.live: dict[int, tuple[DLine, Color]] = {}
        self.delete_at: dict[int, Optional[int]] = {}
        self.u = 0
        self.updates_since_init = 0
        self.stats = {"expensive_updates": 0, "full_rebuilds": 0}
        for l in cs.red:
            self.live[l.id] = (l, Color.RED)
            self.delete_at[l.id] = schedule.get(l.id)
        for l in cs.blue:
            self.live[l.id] = (l, Color.BLUE)
            self.delete_at[l.id] = schedule.get(l.id)
        self._full_init()

    # -- bookkeeping ---------------------------------------------------------

    def _lines(self, color: Color) -> list[DLine]:
        return [l for l, c in self.live.values() if c is color]

    def _measure_kmin(self) -> int:
        red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
        if not red or not blue:
            return 0
        forest_min = self.forest.min_count() if self.forest else None
        gap = far_left_min(red, blue)
        return gap if forest_min is None else min(gap, forest_min)

    def _cadence_from(self, k_target: int, n: int) -> int:
        logn = max(1, math.ceil(math.log2(max(n, 2))))
        return max(1, 1 << max(0, (k_target * logn - 1).bit_length()))

    def _full_init(self) -> None:
        n = max(len(self.live), 2)
        if self.kmin_mode:
            red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
            if red and blue:
                k_cur, _ = static_min_violations(ConstraintSet(red, blue))
            else:
                k_cur = 0
            k_cur = max(k_cur, 1)
            self.cadence = self._cadence_from(k_cur, n)
            self.k_active = min(2 * self.cadence_exp_bound(k_cur), n)
        else:
            self.cadence = self._cadence_from(max(self.k, 1), n)
            self.k_active = min(self.k, n)
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

    def cadence_exp_bound(self, k_cur: int) -> int:
        # smallest power of two >= k_cur, doubled for the activation level
        p = 1
        while p < k_cur:
            p *= 2
        return p

    def _layer_levels(self, nlines: int) -> list[int]:
        if not self.kmin_mode:
            return [min(self.k, nlines)]
        out = []
        l = 1
        while True:
            out.append(min(1 << l, nlines))
            if (1 << l) >= nlines:
                break
            l += 1
        return sorted(set(out))

    def _build_layer(self, index: int, lines: list[DLine], color: Color) -> _Layer:
        direction = Direction.LOWER if color is Color.RED else Direction.UPPER
        sets = {}
        for lv in self._layer_levels(len(lines)):
            sets[lv] = chain_decomposition(lines, lv, direction,
                                           source=f"layer {index}")
        return _Layer(index, lines, sets)

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
            self.layers[color][idx] = self._build_layer(idx, lines, color)

    # -- candidate set I and the forest ---------------------------------------

    def _all_chains(self, color: Color) -> list[Chain]:
        kind = ChainKind.CONCAVE if color is Color.RED else ChainKind.CONVEX
        out = [
            _trivial_chain(l, kind) for l in self.leftover[color].values()
        ]
        for layer in self.layers[color].values():
            out.extend(layer.chains_for(self.k_active))
        return out

    def _register_point(self, x: RatT, y: RatT, ids: tuple[int, ...]) -> None:
        red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
        cnt = violations_at(PointR2(x, y), red, blue)
        pt = PTPoint(x, y, cnt, True, payload=ids)
        self.forest.insert(pt)
        for id_ in ids:
            self.points_by_line.setdefault(id_, []).append(pt)

    def _rebuild_candidates(self) -> None:
        red_chains = self._all_chains(Color.RED)
        blue_chains = self._all_chains(Color.BLUE)
        red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
        pts = []
        seen = set()
        for cr in red_chains:
            for cb in blue_chains:
                for x, y in chain_pair_intersections(cr, cb):
                    if (x, y) in seen:
                        continue
                    seen.add((x, y))
                    cnt = violations_at(PointR2(x, y), red, blue)
                    ids = (cr.piece_at(x).line.id, cb.piece_at(x).line.id)
                    pts.append(PTPoint(x, y, cnt, True, payload=ids))
        self.forest = PartitionForest(pts)
        self.points_by_line = {}
        for pt in pts:
            for id_ in pt.payload:
                self.points_by_line.setdefault(id_, []).append(pt)

    # -- updates ----------------------------------------------------------------

    def insert(self, line: DLine, color: Color, delete_at: Optional[int]) -> None:
        check_schedule(self.delete_at, self.u, line.id, inserting=True,
                       due=delete_at)
        self.u += 1
        self.updates_since_init += 1
        self.live[line.id] = (line, color)
        self.delete_at[line.id] = delete_at
        self.leftover[color][line.id] = line
        # all counts of existing candidates shift where the new line is violated
        self.forest.halfplane_update(line, above=(color is Color.RED), delta=+1)
        kind = ChainKind.CONCAVE if color is Color.RED else ChainKind.CONVEX
        new_chain = _trivial_chain(line, kind)
        opposing = self._all_chains(color.other())
        for opp in opposing:
            if color is Color.RED:
                inters = chain_pair_intersections(new_chain, opp)
            else:
                inters = chain_pair_intersections(opp, new_chain)
            for x, y in inters:
                other_id = opp.piece_at(x).line.id
                self._register_point(x, y, (line.id, other_id))
        self._maybe_expensive()

    def delete(self, id_: int) -> None:
        check_schedule(self.delete_at, self.u, id_, inserting=False)
        line, color = self.live[id_]
        da = self.delete_at[id_]
        self.u += 1
        self.updates_since_init += 1
        # the leftover list holds every line due by the next expensive update
        if id_ not in self.leftover[color]:
            raise AssertionError(
                f"line {id_} due at {da} is not in the leftover list "
                f"at update {self.u}"
            )
        del self.leftover[color][id_]
        del self.live[id_]
        del self.delete_at[id_]
        for pt in self.points_by_line.pop(id_, []):
            if pt.alive:
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
        if self.kmin_mode:
            k_cur = max(self._measure_kmin(), 1)
            n = max(len(self.live), 2)
            self.cadence = self._cadence_from(k_cur, n)
            self.k_active = min(2 * self.cadence_exp_bound(k_cur), n)
        # flush the leftover and every layer whose block ends here: those of
        # index <= v2(u), and any below a cadence that k_min tracking raised
        # (expensive updates no longer reach them at their block ends)
        upto = max((self.u & -self.u).bit_length() - 1,
                   self.cadence.bit_length() - 1)
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
        if not self.kmin_mode and kq > self.k:
            raise ValueError(f"query k'={kq} exceeds structure k={self.k}")
        red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
        if not red or not blue:
            return LPResult(LPStatus.UNBOUNDED, reason="empty-side")
        if far_left_min(red, blue) <= kq:
            return LPResult(LPStatus.UNBOUNDED)
        pt = self.forest.leftmost_valid(kq)
        if pt is None:
            return LPResult(LPStatus.INFEASIBLE)
        return LPResult(LPStatus.FEASIBLE, PointR2(pt.x, pt.y), pt.count)

    def query_kmin(self) -> tuple[int, LPResult]:
        if not self.kmin_mode:
            raise ValueError("structure was not built in k_min-tracking mode")
        red, blue = self._lines(Color.RED), self._lines(Color.BLUE)
        if not red or not blue:
            return 0, LPResult(LPStatus.UNBOUNDED, reason="empty-side")
        k_min = self._measure_kmin()
        if k_min > self.k_active:
            self._full_init()   # defensive; cannot happen within the contract
            k_min = self._measure_kmin()
        return k_min, self.query(k_min)

    # -- audits ---------------------------------------------------------------

    def audit(self) -> None:
        """Verify layer survival promises, leftover membership and buffers.

        Every live line sits in exactly one place: the leftover list or one
        layer of its colour.  A layer line is due strictly after that layer's
        next flush, so every overdue line, and every line due at or before
        its layer's next flush, is in the leftover list.
        """
        self.forest.audit()
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
