"""Seeded input generators for the benchmark workloads.

Every generator draws from its own ``random.Random`` seeded by a string that
names the workload, the seed and the item, so the same seed gives the same
inputs however many items a run consumes.  Nothing here is timed.
"""

from __future__ import annotations

import math
import random

from sepkit.chains import DLine
from sepkit.core import Color, LabeledPoint
from sepkit.rat import Rat


def rng_for(workload: str, seed: int, item: object = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{item}")


def nearly_separable_points(rng: random.Random, n: int, outliers: int):
    """Integer points strictly on either side of a random integer-slope line,
    with unique x and y and ``outliers`` colours flipped.

    Returns ``(points, slope)``; the line ``y = slope * x`` misclassifies
    exactly the flipped points, so the instance is feasible for any
    ``k >= outliers``.
    """
    coord = 10**5
    m = rng.randint(-2, 2)
    pts, ux, uy = [], set(), set()
    while len(pts) < n:
        x = rng.randint(-coord, coord)
        off = rng.randint(max(2, coord // 100), coord)
        blue = rng.random() < 0.5
        y = m * x + (off if blue else -off)
        if x in ux or y in uy:
            continue
        ux.add(x)
        uy.add(y)
        pts.append(LabeledPoint.of(x, y, Color.BLUE if blue else Color.RED,
                                   len(pts)))
    for i in rng.sample(range(n), outliers):
        p = pts[i]
        pts[i] = LabeledPoint(p.point, p.color.other(), p.id)
    return pts, m


class LpStream:
    """Semi-online halfplane stream: duals of nearly separable points.

    The red point (x, y) becomes the red line Y = x*X - y, its dual; blue
    likewise.  ``init`` lists the ``(DLine, Color)`` pairs live before the
    first update and ``schedule`` their promised deletion updates.
    ``next_op(t)`` returns update ``t`` (1, 2, ...): ``("insert", DLine,
    Color, delete_at)`` or ``("delete", id)``.  Every line lives 1.5*live to
    2.5*live updates, so the live set stays near ``live``.  Every LATE_EVERY-th
    deletion arrives 1 to LATE_MAX updates after its promise; that is legal,
    only early deletions are not.  Each update index holds at most one
    arrival, so a late deletion delays no other.
    """

    COORD = 10**4
    FLIP = 0.02          # share of points on the wrong side
    LATE_EVERY = 10
    LATE_MAX = 8

    def __init__(self, rng: random.Random, live: int):
        self.rng = rng
        self.live = live
        self.promises = 0
        self.slope = rng.randint(-2, 2)
        self.used_x: set[int] = set()
        self.next_id = 0
        self.arrival: dict[int, int] = {}       # update -> id deleted there
        # live primal points and, per point, the directions to the others:
        # no two live duals are parallel (unique x) and no three concurrent
        # (no three live points collinear), the solvers' general position
        self.points: dict[int, tuple[int, int]] = {}
        self.dirs: dict[int, set[tuple[int, int]]] = {}
        self.init = []
        self.schedule = {}
        for _ in range(live):
            line, color = self._new_line()
            self.init.append((line, color))
            # as if the stream had been running: a random share of each
            # starting line's lifetime has already passed
            self.schedule[line.id] = self._promise(line.id, None)

    def _new_line(self):
        rng = self.rng
        while True:
            x = rng.randint(-self.COORD, self.COORD)
            if x in self.used_x:
                continue
            off = rng.randint(self.COORD // 100, self.COORD)
            blue = rng.random() < 0.5
            if rng.random() < self.FLIP:
                blue = not blue
            y = self.slope * x + (off if blue else -off)
            dirs = {i: _direction(x - px, y - py) for i, (px, py) in self.points.items()}
            if all(d not in self.dirs[i] for i, d in dirs.items()):
                break
        self.used_x.add(x)
        id_ = self.next_id
        self.next_id += 1
        for i, d in dirs.items():
            self.dirs[i].add(d)
        self.points[id_] = (x, y)
        self.dirs[id_] = set(dirs.values())
        return DLine(id_, Rat(x), Rat(-y)), (Color.BLUE if blue else Color.RED)

    def _drop(self, id_: int) -> None:
        x, y = self.points.pop(id_)
        del self.dirs[id_]
        for i, (px, py) in self.points.items():
            self.dirs[i].discard(_direction(x - px, y - py))

    def _free(self, t: int) -> bool:
        return t > 0 and t not in self.arrival

    def _promise(self, id_: int, now) -> int:
        rng = self.rng
        while True:
            t = rng.randint(3 * self.live // 2, 5 * self.live // 2)
            t = rng.randint(1, t) if now is None else now + t
            if self._free(t):
                break
        arrive = t
        self.promises += 1
        if self.promises % self.LATE_EVERY == 0:
            late = [t + d for d in range(1, self.LATE_MAX + 1) if self._free(t + d)]
            if late:
                arrive = rng.choice(late)
        self.arrival[arrive] = id_
        return t

    def next_op(self, t: int):
        id_ = self.arrival.pop(t, None)
        if id_ is not None:
            self._drop(id_)
            return ("delete", id_)
        line, color = self._new_line()
        return ("insert", line, color, self._promise(line.id, t))


def _direction(dx: int, dy: int) -> tuple[int, int]:
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    return (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)


class MarginStream:
    """Separable points for the max-margin stream.

    ``init`` holds ``live`` points strictly on either side of a random
    integer-slope line; ``next_op(live_ids)`` returns ``("insert",
    LabeledPoint)`` or ``("delete", id)`` with equal odds, deleting a
    uniformly chosen live id, so the live set stays near ``live``.
    """

    COORD = 10**4

    def __init__(self, rng: random.Random, live: int):
        self.rng = rng
        self.slope = rng.randint(-2, 2)
        self.used: set[tuple[int, int]] = set()
        self.next_id = 0
        self.init = [self._new_point() for _ in range(live)]

    def _new_point(self) -> LabeledPoint:
        rng = self.rng
        while True:
            x = rng.randint(-self.COORD, self.COORD)
            off = rng.randint(self.COORD // 100, self.COORD)
            blue = rng.random() < 0.5
            y = self.slope * x + (off if blue else -off)
            if (x, y) not in self.used:
                break
        self.used.add((x, y))
        p = LabeledPoint.of(x, y, Color.BLUE if blue else Color.RED, self.next_id)
        self.next_id += 1
        return p

    def next_op(self, live_ids: list[int]):
        if live_ids and self.rng.random() < 0.5:
            return ("delete", self.rng.choice(live_ids))
        return ("insert", self._new_point())
