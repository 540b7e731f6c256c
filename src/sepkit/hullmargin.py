"""Maximum-margin strip for separable inputs, static and dynamic.

The separator is the perpendicular bisector of the segment realizing the
distance between the two convex hulls; the strip width equals that distance.
Hulls are maintained per color over a sorted point set with the hull chains
rebuilt on demand (correctness-first; the chains always equal a from-scratch
hull of the live set).  Distances are computed by an exact feature walk over
vertex/edge pairs, the short-chain fallback the design allows.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Color,
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    split_colors,
)
from .errors import UnknownId, VerticalSeparator
from .rat import RatT


class StripStatus(enum.Enum):
    SEPARABLE = "Separable"
    NOT_SEPARABLE = "NotSeparable"
    EMPTY_SIDE = "EmptySide"


@dataclass(frozen=True)
class StripResult:
    status: StripStatus
    separator: Optional[Separator] = None
    width_sq: Optional[RatT] = None
    witness: Optional[tuple[int, int]] = None          # (red id, blue id)
    witness_points: Optional[tuple[PointR2, PointR2]] = None


def _cross(o: PointR2, a: PointR2, b: PointR2) -> RatT:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def convex_hull(points: Sequence[PointR2]) -> list[PointR2]:
    """Counterclockwise convex hull without collinear interior vertices."""
    pts = sorted(set((p.x, p.y) for p in points))
    pts = [PointR2(x, y) for x, y in pts]
    if len(pts) <= 2:
        return pts
    lower: list[PointR2] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[PointR2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segments(hull: list[PointR2]):
    n = len(hull)
    if n == 1:
        yield hull[0], hull[0]
    else:
        for i in range(n if n > 2 else 1):
            yield hull[i], hull[(i + 1) % n]


def _point_in_hull(p: PointR2, hull: list[PointR2]) -> bool:
    """Containment including the boundary."""
    n = len(hull)
    if n == 1:
        return p.x == hull[0].x and p.y == hull[0].y
    if n == 2:
        a, b = hull
        if _cross(a, b, p) != 0:
            return False
        return min(a.x, b.x) <= p.x <= max(a.x, b.x) and \
            min(a.y, b.y) <= p.y <= max(a.y, b.y)
    for i in range(n):
        if _cross(hull[i], hull[(i + 1) % n], p) < 0:
            return False
    return True


def _segs_intersect(p1, p2, q1, q2) -> bool:
    """Closed-segment intersection test, exact."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True

    def on_seg(a, b, c):
        return _cross(a, b, c) == 0 and min(a.x, b.x) <= c.x <= max(a.x, b.x) \
            and min(a.y, b.y) <= c.y <= max(a.y, b.y)

    return on_seg(q1, q2, p1) or on_seg(q1, q2, p2) or \
        on_seg(p1, p2, q1) or on_seg(p1, p2, q2)


def hulls_intersect(ha: list[PointR2], hb: list[PointR2]) -> bool:
    if not ha or not hb:
        return False
    if any(_point_in_hull(p, hb) for p in ha):
        return True
    if any(_point_in_hull(p, ha) for p in hb):
        return True
    for a1, a2 in _segments(ha):
        for b1, b2 in _segments(hb):
            if _segs_intersect(a1, a2, b1, b2):
                return True
    return False


def _closest_point_on_segment(p: PointR2, a: PointR2, b: PointR2) -> PointR2:
    abx, aby = b.x - a.x, b.y - a.y
    ab_sq = abx * abx + aby * aby
    if ab_sq == 0:
        return a
    t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / ab_sq
    if t <= 0:
        return a
    if t >= 1:
        return b
    return PointR2(a.x + t * abx, a.y + t * aby)


def hull_distance(
    red_hull: list[PointR2], blue_hull: list[PointR2]
) -> tuple[RatT, PointR2, PointR2]:
    """(squared distance, red point, blue point) between two disjoint hulls."""
    best = None
    for p in red_hull:
        for b1, b2 in _segments(blue_hull):
            q = _closest_point_on_segment(p, b1, b2)
            d = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
            if best is None or d < best[0]:
                best = (d, p, q)
    for p in blue_hull:
        for a1, a2 in _segments(red_hull):
            q = _closest_point_on_segment(p, a1, a2)
            d = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
            if best is None or d < best[0]:
                best = (d, q, p)
    return best


def _bisector(r: PointR2, b: PointR2) -> LineR2:
    """Perpendicular bisector of rb, or VerticalSeparator when rb is horizontal."""
    if r.y == b.y:
        raise VerticalSeparator(
            "maximum-margin separator is vertical (witness segment horizontal)"
        )
    mx, my = (r.x + b.x) / 2, (r.y + b.y) / 2
    m = -(b.x - r.x) / (b.y - r.y)
    return LineR2(m, my - m * mx)


def _strip_from_hulls(
    red_hull: list[PointR2],
    blue_hull: list[PointR2],
    red_ids: dict[tuple, int],
    blue_ids: dict[tuple, int],
) -> StripResult:
    if not red_hull or not blue_hull:
        return StripResult(StripStatus.EMPTY_SIDE)
    if hulls_intersect(red_hull, blue_hull):
        return StripResult(StripStatus.NOT_SEPARABLE)
    d, rp, bp = hull_distance(red_hull, blue_hull)
    line = _bisector(rp, bp)
    orient = (
        Orientation.BLUE_ABOVE
        if bp.y - (line.m * bp.x + line.c) > 0
        else Orientation.RED_ABOVE
    )

    def anchor_id(p: PointR2, hull, ids) -> int:
        key = (p.x, p.y)
        if key in ids:
            return ids[key]
        # edge-interior realizer: anchor to the nearest incident hull vertex
        best = min(
            hull,
            key=lambda v: ((v.x - p.x) ** 2 + (v.y - p.y) ** 2, ids[(v.x, v.y)]),
        )
        return ids[(best.x, best.y)]

    return StripResult(
        status=StripStatus.SEPARABLE,
        separator=Separator(line, orient),
        width_sq=d,
        witness=(anchor_id(rp, red_hull, red_ids), anchor_id(bp, blue_hull, blue_ids)),
        witness_points=(rp, bp),
    )


def max_margin_static(pts: Sequence[LabeledPoint]) -> StripResult:
    reds, blues = split_colors(pts)
    rh = convex_hull([p.point for p in reds])
    bh = convex_hull([p.point for p in blues])
    rid = {(p.point.x, p.point.y): p.id for p in reds}
    bid = {(p.point.x, p.point.y): p.id for p in blues}
    return _strip_from_hulls(rh, bh, rid, bid)


class DynHull:
    """Dynamic convex hull of one color class.

    Points live in an x-sorted list; the hull chains are recomputed lazily
    from the sorted order whenever dirty, so the exposed hull always equals a
    from-scratch hull of the live set.
    """

    def __init__(self):
        self._pts: list[tuple[RatT, RatT, int]] = []   # (x, y, id) sorted
        self._by_id: dict[int, tuple[RatT, RatT]] = {}
        self._hull: Optional[list[PointR2]] = None

    def __len__(self):
        return len(self._pts)

    def insert(self, p: PointR2, id: int) -> None:
        if id in self._by_id:
            raise UnknownId(f"id {id} already present")
        bisect.insort(self._pts, (p.x, p.y, id))
        self._by_id[id] = (p.x, p.y)
        self._hull = None

    def delete(self, id: int) -> None:
        if id not in self._by_id:
            raise UnknownId(f"no live point with id {id}")
        x, y = self._by_id.pop(id)
        i = bisect.bisect_left(self._pts, (x, y, id))
        assert self._pts[i] == (x, y, id)
        self._pts.pop(i)
        self._hull = None

    def hull(self) -> list[PointR2]:
        if self._hull is None:
            self._hull = convex_hull([PointR2(x, y) for x, y, _ in self._pts])
        return self._hull

    def id_map(self) -> dict[tuple, int]:
        return {(x, y): i for x, y, i in self._pts}


class HullPair:
    """Red/blue hull pair maintaining the maximum-margin strip under updates."""

    def __init__(self, pts: Sequence[LabeledPoint] = ()):
        self.red = DynHull()
        self.blue = DynHull()
        self._color_of: dict[int, Color] = {}
        # no strip per point: a prefix may have a vertical separator even
        # when the whole set has none
        for p in pts:
            self._add(p)

    def _add(self, p: LabeledPoint) -> None:
        side = self.red if p.color is Color.RED else self.blue
        side.insert(p.point, p.id)
        self._color_of[p.id] = p.color

    def insert(self, p: LabeledPoint) -> StripResult:
        self._add(p)
        return self.result()

    def delete(self, id: int) -> StripResult:
        if id not in self._color_of:
            raise UnknownId(f"no live point with id {id}")
        color = self._color_of.pop(id)
        (self.red if color is Color.RED else self.blue).delete(id)
        return self.result()

    def result(self) -> StripResult:
        return _strip_from_hulls(
            self.red.hull(), self.blue.hull(), self.red.id_map(), self.blue.id_map()
        )
