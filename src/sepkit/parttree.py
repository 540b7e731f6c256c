"""The candidate set I of the semi-online LP as one flat table.

Each candidate is one row: its primitive homogeneous integer point (X, Y,
W), W > 0, as `chains.chain_pair_intersections` gives it, its x = X/W
correctly rounded to a float (`scans.fdiv`, which also takes values beyond
the float range), its violation count and an alive flag.  No rational is
built: a point's x and y are built only when read.

A halfplane update adds +-1 to every row strictly on one side of a line:
one exact sign pass of A*Y - B*X - C*W over the rows (`scans.line_sides`,
on int64 while its bound fits, else on Python ints).  A query takes the
alive row with count <= k' of least x, then least y.  Correctly rounded
division is monotone, so the least x lies among the rows at the least
float key, and only those are compared exactly.  A deletion clears the
row's alive flag; the table drops its dead rows once half are dead.

A point knows its row index, not its table, so a dropped table is freed as
soon as nothing refers to it.  Its count is the table's, written back when
the point is returned by a query or moved by a compaction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .chains import DLine
from .rat import Rat, RatT
from .scans import LineSet, fdiv, line_sides, point_columns


class PTPoint:
    """A candidate point with its violation count: `xyw` is its primitive
    homogeneous triple (X, Y, W), W > 0, and `row` its index in the table
    that holds it."""

    __slots__ = ("xyw", "count", "alive", "row", "payload")

    def __init__(self, xyw: tuple[int, int, int], count: int,
                 payload: object = None):
        self.xyw, self.count, self.payload = xyw, count, payload
        self.alive = True
        self.row: Optional[int] = None

    @property
    def x(self) -> RatT:
        return Rat(self.xyw[0], self.xyw[2])

    @property
    def y(self) -> RatT:
        return Rat(self.xyw[1], self.xyw[2])


class PartitionForest:
    """The candidate table: `pts` and the numpy columns `cols` (X, Y, W),
    `fx`, `count` and `alive`, one row per point."""

    def __init__(self, points: Sequence[PTPoint] = (), cols=None):
        self.pts: list[PTPoint] = []
        self.cols = tuple(np.zeros(0, np.int64) for _ in range(3))
        self.fx = np.zeros(0)
        self.count = np.zeros(0, np.int64)
        self.alive = np.zeros(0, bool)
        self.deleted = 0
        # rows tested by halfplane updates; read only by perfbench/spans.py,
        # kept until the trace facility (ROADMAP direction 1) counts them
        self.crossings = 0
        self._append(points, cols)

    def __len__(self):
        return len(self.pts) - self.deleted

    def insert(self, *pts: PTPoint, cols=None) -> None:
        """Append a batch of points; `cols` is the point_columns of their
        triples, if the caller has it."""
        self._append(pts, cols)

    def _append(self, pts: Sequence[PTPoint], cols) -> None:
        if not pts:
            return
        if cols is None:
            cols = point_columns([p.xyw for p in pts])
        for row, p in enumerate(pts, len(self.pts)):
            p.row = row
        self.pts.extend(pts)
        self.cols = tuple(np.concatenate(h) for h in zip(self.cols, cols))
        self.fx = np.append(self.fx, [fdiv(p.xyw[0], p.xyw[2]) for p in pts])
        self.count = np.append(self.count,
                               np.array([p.count for p in pts], np.int64))
        self.alive = np.append(self.alive, np.ones(len(pts), bool))

    def halfplane_update(self, line: DLine, above: bool, delta: int) -> None:
        """Add delta to the count of every point strictly above (or below)
        the line."""
        self.crossings += len(self.pts)
        if self.pts:
            side = line_sides(LineSet([line]).cols, self.cols)[:, 0]
            self.count[side > 0 if above else side < 0] += delta

    def leftmost_valid(self, kq: int) -> Optional[PTPoint]:
        """The alive point with count <= kq of least x, then least y; the
        first inserted on ties."""
        rows = np.flatnonzero(self.alive & (self.count <= kq))
        if not len(rows):
            return None
        keys = self.fx[rows]
        tied = rows[keys == keys.min()].tolist()
        row = min(tied, key=lambda i: (self.pts[i].x, self.pts[i].y))
        pt = self.pts[row]
        pt.count = int(self.count[row])
        return pt

    def delete(self, pt: PTPoint) -> None:
        row = pt.row
        if (row is None or row >= len(self.pts) or self.pts[row] is not pt
                or not pt.alive):
            raise KeyError("point not present in the table")
        self.alive[row] = pt.alive = False
        self.deleted += 1
        if self.deleted * 2 >= len(self.pts):
            self.rebuild()

    def rebuild(self) -> None:
        """Drop the dead rows."""
        keep = np.flatnonzero(self.alive)
        self.pts = [self.pts[i] for i in keep.tolist()]
        self.cols = tuple(h[keep] for h in self.cols)
        self.fx, self.count = self.fx[keep], self.count[keep]
        self.alive = self.alive[keep]
        for row, (p, count) in enumerate(zip(self.pts, self.count.tolist())):
            p.row, p.count = row, count
        self.deleted = 0

    def alive_points(self) -> list[PTPoint]:
        """The alive points, their counts written back."""
        out = []
        for row in np.flatnonzero(self.alive).tolist():
            pt = self.pts[row]
            pt.count = int(self.count[row])
            out.append(pt)
        return out

    def audit(self) -> None:
        """Every row agrees with its point: index, alive flag, integer
        point and float key; `deleted` counts the dead rows, fewer than
        half of them."""
        n = len(self.pts)
        if any(len(col) != n for col in
               (*self.cols, self.fx, self.count, self.alive)):
            raise AssertionError("table columns differ in length")
        if [p.row for p in self.pts] != list(range(n)):
            raise AssertionError("a point's row index is not its row")
        if [p.alive for p in self.pts] != self.alive.tolist():
            raise AssertionError("alive flags disagree with the points")
        if self.deleted != n - np.count_nonzero(self.alive) or (
                self.deleted and self.deleted * 2 >= n):
            raise AssertionError(f"deleted count {self.deleted} is off")
        want = point_columns([p.xyw for p in self.pts])
        if ([h.tolist() for h in want] != [h.tolist() for h in self.cols]
                or self.fx.tolist() != [fdiv(p.xyw[0], p.xyw[2])
                                        for p in self.pts]):
            raise AssertionError("a row's point differs from its point")


# The name the benchmark's span tracer (perfbench/spans.py) wraps for the
# table's build; kept until the trace facility (ROADMAP direction 1)
# replaces that patcher.
PartitionTree = PartitionForest
