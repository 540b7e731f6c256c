"""Buffered partition trees over candidate points with violation counts.

Each tree node carries a buffer b(u) and a partial minimum k'(u) under the
invariant  true_min(u) = k'(u) + sum of b(a) over ancestors a of u
(including u).  Visiting a node always propagates its buffer to the
children first.  Halfplane updates add +-1 to every point strictly on one
side of a line; queries find the leftmost alive point with count <= k'.

Deletions are sentinel-based (an explicit alive flag, never a numeric
infinity).  Point insertions use the logarithmic method: a forest of trees
with power-of-two sizes, merged on collision.  An insertion takes a batch
of points (one update's candidates) and merges and builds once.

Every point carries one order key (fx, x, fy, y), where fx and fy are x
and y correctly rounded to floats (`scans.fdiv`, which also takes values
beyond the float range).  Correctly rounded division is monotone, so a
tuple compare decides on the floats and compares the rationals only where
the floats tie: the key orders exactly like (x, y).  This is the
floating-point filter of `scans.exact_order`.  Builds rank the points by
it, a node bounds its cell by the least and greatest keys of its points
and by the keys of its lowest and highest points, deletions descend by key
compares, and a leftmost query is one descent per tree that skips every
node whose least key cannot beat the best point found so far.

Each node splits its points by two alternating median cuts (x, then y).
A build sorts its points once per axis and cuts by rank.  The split only
affects how many cells a line crosses (the `crossings` count), not the
answers.

A halfplane update tests a cell at the two corners where A*y - B*x - C is
smallest and largest, and a leaf point at the point itself.  The sign
comes from the floats of the keys and of the line's integer form
(`DLine.abc`) when it clears a bound on their rounding error (Shewchuk
1997; Bronnimann, Burnikel and Pion 2001), and from `scans.side_of_line`
in Python ints otherwise: at points on the line, near it, or beyond the
float range.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .chains import DLine
from .rat import RatT, den, num
from .scans import fdiv, side_of_line

LEAF_SIZE = 4
FANOUT_LEVELS = 2   # two alternating median cuts per node

_y_part = itemgetter(2, 3)      # (fy, y) of an order key


class PTPoint:
    """A candidate point with its violation count; `key` is its order key
    (fx, x, fy, y)."""

    __slots__ = ("key", "count", "alive", "payload")

    def __init__(self, x: RatT, y: RatT, count: int, alive: bool = True,
                 payload: object = None):
        self.key = fdiv(num(x), den(x)), x, fdiv(num(y), den(y)), y
        self.count = count
        self.alive = alive
        self.payload = payload

    @property
    def x(self) -> RatT:
        return self.key[1]

    @property
    def y(self) -> RatT:
        return self.key[3]


class PTNode:
    """`lo` and `hi` are the least and greatest order keys of the node's
    points, `ylo` and `yhi` the keys of its lowest and highest points: the
    cell is the x range of lo and hi times the y range of ylo and yhi."""

    __slots__ = ("lo", "hi", "ylo", "yhi", "pts", "children", "buf", "kpart")

    def __init__(self, pts: Sequence[PTPoint], children: Sequence["PTNode"]):
        self.pts = pts
        self.children = children
        self.buf = 0
        if children:
            self.lo = min(c.lo for c in children)
            self.hi = max(c.hi for c in children)
            ys = [c.ylo for c in children] + [c.yhi for c in children]
        else:
            keys = [p.key for p in pts]
            self.lo = min(keys, default=None)
            self.hi = max(keys, default=None)
            ys = keys
        self.ylo = min(ys, key=_y_part, default=None)
        self.yhi = max(ys, key=_y_part, default=None)
        self.pull()

    def pull(self) -> None:
        """Recompute k' from the children (their buffers folded in, own
        buffer not) or the alive points."""
        if self.children:
            vals = [c.kpart + c.buf for c in self.children
                    if c.kpart is not None]
        else:
            vals = [p.count for p in self.pts if p.alive]
        self.kpart = min(vals) if vals else None

    def propagate(self) -> None:
        if self.buf == 0:
            return
        if self.children:
            for c in self.children:
                c.buf += self.buf
        else:
            for p in self.pts:
                if p.alive:
                    p.count += self.buf
        if self.kpart is not None:
            self.kpart += self.buf
        self.buf = 0


def _ranks(pts: list[PTPoint]) -> tuple[list[int], list[int]]:
    """Rank of each point in the stable (x, y) order and in the stable
    (y, x) order: one key sort per axis and build, after which every
    median split sorts small ints."""
    by_x = sorted(range(len(pts)), key=lambda i: pts[i].key)
    # stable, so points of equal y keep their (x, y) order
    by_y = sorted(by_x, key=lambda i: _y_part(pts[i].key))
    out = []
    for order in (by_x, by_y):
        rank = [0] * len(pts)
        for r, i in enumerate(order):
            rank[i] = r
        out.append(rank)
    return out[0], out[1]


def _build(pts: list[PTPoint], idx: list[int], ranks) -> PTNode:
    """Node over the points pts[i], i in idx; cut by ranks[0], then
    ranks[1]."""
    if len(idx) <= LEAF_SIZE:
        return PTNode([pts[i] for i in idx], ())
    parts = [idx]
    for axis in range(FANOUT_LEVELS):
        nxt: list[list[int]] = []
        for part in parts:
            if len(part) <= 1:
                nxt.append(part)
            else:
                s = sorted(part, key=ranks[axis].__getitem__)
                h = len(s) // 2
                nxt.extend([s[:h], s[h:]])
        parts = nxt
    children = [_build(pts, p, ranks) for p in parts if p]
    return PTNode((), children)


# A sign decided on floats must beat this bound on their rounding error: a
# relative part, about 90 units in the last place of the terms, and an
# absolute part for coordinates that underflow.
_REL, _ABS = 1e-14, 1e-300


def _filter_line(abc: tuple[int, int, int]) -> tuple:
    """The line A*y = B*x + C as (fa, fb, fc, |fc|, slack, abc) for
    `_side`: its coefficients as floats, and the absolute part of the error
    bound."""
    A, B, C = abc
    fa, fb, fc = fdiv(A, 1), fdiv(B, 1), fdiv(C, 1)
    return fa, fb, fc, abs(fc), _ABS * (abs(fa) + abs(fb) + 1), abc


def _side(line: tuple, kx: tuple, ky: tuple) -> int:
    """Sign of A*y - B*x - C at the x of order key kx and the y of order
    key ky: from their floats when the error bound lets them decide, else
    exactly (`scans.side_of_line`).  An infinity or a NaN never decides."""
    fa, fb, fc, afc, slack, abc = line
    p, q = fa * ky[2], fb * kx[0]
    v = p - q - fc
    err = _REL * (abs(p) + abs(q) + afc) + slack
    if v > err:
        return 1
    if v < -err:
        return -1
    return side_of_line(abc, kx[1], ky[3])


def _above_halfplane(node: PTNode, line: tuple, above: bool):
    """Cell position vs the open halfplane strictly above/below the
    `_filter_line` line A*y = B*x + C: returns 1 (fully inside), -1 (fully
    outside), 0 (straddles)."""
    # over the cell, A*y - B*x - C is smallest at the bottom corner the
    # line rises towards and largest at the opposite top corner
    xl, xh = (node.hi, node.lo) if line[1] > 0 else (node.lo, node.hi)
    if above:
        if _side(line, xl, node.ylo) > 0:
            return 1
        return -1 if _side(line, xh, node.yhi) <= 0 else 0
    if _side(line, xh, node.yhi) < 0:
        return 1
    return -1 if _side(line, xl, node.ylo) >= 0 else 0


class PartitionTree:
    def __init__(self, pts: list[PTPoint]):
        pts = list(pts)
        self.root = _build(pts, list(range(len(pts))), _ranks(pts))
        self.size = len(pts)
        self.crossings = 0

    # -- halfplane update --------------------------------------------------

    def halfplane_update(self, line: DLine, above: bool, delta: int) -> None:
        self._hp(self.root, _filter_line(line.abc), above, delta)

    def _hp(self, u: PTNode, line: tuple, above: bool, delta: int) -> None:
        u.propagate()
        if not u.children:
            inside = 1 if above else -1
            for p in u.pts:
                if p.alive and _side(line, p.key, p.key) == inside:
                    p.count += delta
            u.pull()
            return
        for c in u.children:
            side = _above_halfplane(c, line, above)
            if side == 1:
                c.buf += delta
            elif side == 0:
                self.crossings += 1
                self._hp(c, line, above, delta)
        u.pull()

    # -- queries -------------------------------------------------------------

    def min_count(self) -> Optional[int]:
        if self.root.kpart is None:
            return None
        return self.root.kpart + self.root.buf

    def leftmost_valid(self, kq: int, best: Optional[PTPoint] = None
                       ) -> Optional[PTPoint]:
        """The alive point with the least order key and count <= kq, the
        first one in tree order on ties; `best` if none has a key less
        than best's."""
        return self._leftmost(self.root, kq, best)

    def _leftmost(self, u: PTNode, kq: int, best: Optional[PTPoint]
                  ) -> Optional[PTPoint]:
        if u.kpart is None or u.kpart + u.buf > kq:
            return best
        if best is not None and u.lo >= best.key:
            return best
        u.propagate()
        if not u.children:
            for p in u.pts:
                if p.alive and p.count <= kq and (best is None
                                                  or p.key < best.key):
                    best = p
            return best
        for c in u.children:
            best = self._leftmost(c, kq, best)
        return best

    def delete_point(self, pt: PTPoint) -> bool:
        return self._del(self.root, pt)

    def _del(self, u: PTNode, pt: PTPoint) -> bool:
        k = pt.key
        if u.lo is None or not (u.lo <= k <= u.hi):
            return False
        if not (_y_part(u.ylo) <= _y_part(k) <= _y_part(u.yhi)):
            return False
        u.propagate()
        if not u.children:
            if pt in u.pts:
                pt.alive = False
                u.pull()
                return True
            return False
        for c in u.children:
            if self._del(c, pt):
                u.pull()
                return True
        return False

    def alive_points(self) -> list[PTPoint]:
        """Flush all buffers into the stored counts and return the alive
        point objects themselves (identity is preserved across rebuilds)."""
        out: list[PTPoint] = []
        self._collect(self.root, out)
        return out

    def _collect(self, u: PTNode, out: list) -> None:
        u.propagate()
        if not u.children:
            out.extend(p for p in u.pts if p.alive)
            return
        for c in u.children:
            self._collect(c, out)

    def audit(self) -> None:
        """Full invariant check: true_min(u) = k'(u) + ancestor buffers."""
        self._audit(self.root, 0)

    def _audit(self, u: PTNode, acc: int) -> Optional[int]:
        acc += u.buf
        if not u.children:
            vals = [p.count + acc for p in u.pts if p.alive]
            true_min = min(vals) if vals else None
        else:
            mins = [self._audit(c, acc) for c in u.children]
            mins = [m for m in mins if m is not None]
            true_min = min(mins) if mins else None
        stored = None if u.kpart is None else u.kpart + acc
        if stored != true_min:
            raise AssertionError(f"buffer invariant broken: {stored} != {true_min}")
        return true_min


class PartitionForest:
    """Logarithmic-method forest of partition trees over candidate points."""

    def __init__(self, points: Sequence[PTPoint] = ()):
        self.trees: list[PartitionTree] = []
        self.deleted = 0
        if points:
            self.trees.append(PartitionTree(list(points)))

    def __len__(self):
        return sum(t.size for t in self.trees) - self.deleted

    def insert(self, *pts: PTPoint) -> None:
        """Insert a batch of points with one merge and one tree build."""
        if not pts:
            return
        # binary-counter style merge: absorb every tree no larger than the
        # batch, so each point is rebuilt into at-least-doubling trees
        merged = list(pts)
        while True:
            match = next((t for t in self.trees if t.size <= len(merged)), None)
            if match is None:
                break
            self.trees.remove(match)
            alive = match.alive_points()
            self.deleted -= match.size - len(alive)     # dropped dead points
            merged.extend(alive)
        self.trees.append(PartitionTree(merged))

    def halfplane_update(self, line: DLine, above: bool, delta: int) -> None:
        for t in self.trees:
            t.halfplane_update(line, above, delta)

    def delete(self, pt: PTPoint) -> None:
        for t in self.trees:
            if t.delete_point(pt):
                self.deleted += 1
                if self.deleted * 2 >= max(1, sum(t.size for t in self.trees)):
                    self.rebuild()
                return
        raise KeyError("point not present in forest")

    def rebuild(self) -> None:
        pts = [p for t in self.trees for p in t.alive_points()]
        self.trees = []     # free the old trees before the build
        if pts:
            self.trees.append(PartitionTree(pts))
        self.deleted = 0

    def min_count(self) -> Optional[int]:
        vals = [t.min_count() for t in self.trees]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def leftmost_valid(self, kq: int) -> Optional[PTPoint]:
        """Leftmost alive point with count <= kq, ties broken by smaller y
        (the least order key), and then by tree order."""
        best = None
        for t in self.trees:
            best = t.leftmost_valid(kq, best)
        return best

    def audit(self) -> None:
        for t in self.trees:
            t.audit()

    @property
    def crossings(self) -> int:
        return sum(t.crossings for t in self.trees)
