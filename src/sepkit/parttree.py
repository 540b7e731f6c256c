"""Buffered partition trees over candidate points with violation counts.

Each tree node carries a buffer b(u) and a partial minimum k'(u) under the
invariant  true_min(u) = k'(u) + sum of b(a) over ancestors a of u
(including u).  Visiting a node always propagates its buffer to the
children first.  Halfplane updates add +-1 to every point strictly on one
side of a line; queries find the leftmost alive point with count <= k'.

Deletions are sentinel-based (an explicit alive flag, never a numeric
infinity).  Point insertions use the logarithmic method: a forest of trees
with power-of-two sizes, merged on collision.

Each node splits its points by two alternating median cuts (x, then y).
A build sorts its points once per axis and cuts by rank.  The split only
affects how many cells a line crosses (the `crossings` count), not the
answers.

A halfplane update decides sides exactly on the line's integer form
(`DLine.abc`) with `scans.side_of_line`, in Python ints: a cell is tested
at the two corners where A*y - B*x - C is smallest and largest, a leaf
point at the point itself.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import DLine
from .rat import RatT
from .scans import side_of_line

LEAF_SIZE = 4
FANOUT_LEVELS = 2   # two alternating median cuts per node


@dataclass(eq=False)
class PTPoint:
    x: RatT
    y: RatT
    count: int
    alive: bool = True
    payload: object = None


class PTNode:
    __slots__ = ("xlo", "xhi", "ylo", "yhi", "pts", "children", "buf",
                 "kpart", "best")

    def __init__(self, pts: list[PTPoint], children: list["PTNode"]):
        self.pts = pts
        self.children = children
        self.buf = 0
        xs = [p.x for p in pts] if pts else None
        if children:
            self.xlo = min(c.xlo for c in children)
            self.xhi = max(c.xhi for c in children)
            self.ylo = min(c.ylo for c in children)
            self.yhi = max(c.yhi for c in children)
        else:
            self.xlo = min(xs) if xs else None
            self.xhi = max(xs) if xs else None
            self.ylo = min((p.y for p in pts), default=None)
            self.yhi = max((p.y for p in pts), default=None)
        self.pull()

    def pull(self) -> None:
        """Recompute k' and the best point from children/points (buffers of
        the children are folded in, own buffer is not)."""
        best_key = None
        best_pt = None
        if self.children:
            for c in self.children:
                if c.kpart is None:
                    continue
                key = (c.kpart + c.buf, c.best.x, c.best.y)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pt = c.best
        else:
            for p in self.pts:
                if not p.alive:
                    continue
                key = (p.count, p.x, p.y)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pt = p
        self.kpart = best_key[0] if best_key else None
        self.best = best_pt

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
    (y, x) order: one rational sort per axis and build, after which every
    median split sorts small ints."""
    out = []
    for key in ((lambda i: (pts[i].x, pts[i].y)),
                (lambda i: (pts[i].y, pts[i].x))):
        rank = [0] * len(pts)
        for r, i in enumerate(sorted(range(len(pts)), key=key)):
            rank[i] = r
        out.append(rank)
    return out[0], out[1]


def _build(pts: list[PTPoint], idx: list[int], ranks) -> PTNode:
    """Node over the points pts[i], i in idx; cut by ranks[0], then
    ranks[1]."""
    if len(idx) <= LEAF_SIZE:
        return PTNode([pts[i] for i in idx], [])
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
    return PTNode([], children)


def _above_halfplane(node: PTNode, abc: tuple[int, int, int], above: bool):
    """Cell position vs the open halfplane strictly above/below the line
    A*y = B*x + C: returns 1 (fully inside), -1 (fully outside), 0
    (straddles)."""
    # over the cell, A*y - B*x - C is smallest at the bottom corner the
    # line rises towards and largest at the opposite top corner
    x_min, x_max = (node.xhi, node.xlo) if abc[1] > 0 else (node.xlo, node.xhi)
    lo = side_of_line(abc, x_min, node.ylo)
    hi = side_of_line(abc, x_max, node.yhi)
    if above:
        if lo > 0:
            return 1
        if hi <= 0:
            return -1
    else:
        if hi < 0:
            return 1
        if lo >= 0:
            return -1
    return 0


class PartitionTree:
    def __init__(self, pts: list[PTPoint]):
        pts = list(pts)
        self.root = _build(pts, list(range(len(pts))), _ranks(pts))
        self.size = len(pts)
        self.crossings = 0

    # -- halfplane update --------------------------------------------------

    def halfplane_update(self, line: DLine, above: bool, delta: int) -> None:
        self._hp(self.root, line.abc, above, delta)

    def _hp(self, u: PTNode, abc: tuple[int, int, int], above: bool,
            delta: int) -> None:
        u.propagate()
        if not u.children:
            inside = 1 if above else -1
            for p in u.pts:
                if p.alive and side_of_line(abc, p.x, p.y) == inside:
                    p.count += delta
            u.pull()
            return
        for c in u.children:
            side = _above_halfplane(c, abc, above)
            if side == 1:
                c.buf += delta
            elif side == 0:
                self.crossings += 1
                self._hp(c, abc, above, delta)
        u.pull()

    # -- queries -------------------------------------------------------------

    def min_count(self) -> Optional[int]:
        if self.root.kpart is None:
            return None
        return self.root.kpart + self.root.buf

    def exists_leftward(self, x0: RatT, kq: int) -> bool:
        return self._exists(self.root, x0, kq)

    def _exists(self, u: PTNode, x0: RatT, kq: int) -> bool:
        if u.kpart is None or u.kpart + u.buf > kq:
            return False
        if u.xlo is not None and u.xlo > x0:
            return False
        if u.xhi is not None and u.xhi <= x0:
            return True
        u.propagate()
        if not u.children:
            return any(
                p.alive and p.x <= x0 and p.count <= kq for p in u.pts
            )
        return any(self._exists(c, x0, kq) for c in u.children)

    def best_at_x(self, x0: RatT, kq: int) -> Optional[PTPoint]:
        """Min-y alive point with x == x0 and count <= kq."""
        return self._best_at(self.root, x0, kq)

    def _best_at(self, u: PTNode, x0: RatT, kq: int) -> Optional[PTPoint]:
        if u.kpart is None or u.kpart + u.buf > kq:
            return None
        if u.xlo is None or u.xlo > x0 or u.xhi < x0:
            return None
        u.propagate()
        if not u.children:
            best = None
            for p in u.pts:
                if p.alive and p.x == x0 and p.count <= kq:
                    if best is None or p.y < best.y:
                        best = p
            return best
        best = None
        for c in u.children:
            r = self._best_at(c, x0, kq)
            if r is not None and (best is None or r.y < best.y):
                best = r
        return best

    def delete_point(self, pt: PTPoint) -> bool:
        return self._del(self.root, pt)

    def _del(self, u: PTNode, pt: PTPoint) -> bool:
        if u.xlo is None or not (u.xlo <= pt.x <= u.xhi):
            return False
        if u.ylo is None or not (u.ylo <= pt.y <= u.yhi):
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
        self.xs: list[RatT] = []
        if points:
            self.trees.append(PartitionTree(list(points)))
            self.xs = sorted(p.x for p in points)

    def __len__(self):
        return sum(t.size for t in self.trees) - self.deleted

    def insert(self, pt: PTPoint) -> None:
        # binary-counter style merge: absorb every tree no larger than the
        # batch, so each point is rebuilt into at-least-doubling trees
        merged = [pt]
        while True:
            match = next((t for t in self.trees if t.size <= len(merged)), None)
            if match is None:
                break
            self.trees.remove(match)
            merged.extend(match.alive_points())
        self.trees.append(PartitionTree(merged))
        bisect.insort(self.xs, pt.x)

    def halfplane_update(self, line: DLine, above: bool, delta: int) -> None:
        for t in self.trees:
            t.halfplane_update(line, above, delta)

    def delete(self, pt: PTPoint) -> None:
        for t in self.trees:
            if t.delete_point(pt):
                self.deleted += 1
                i = bisect.bisect_left(self.xs, pt.x)
                if i < len(self.xs) and self.xs[i] == pt.x:
                    self.xs.pop(i)
                if self.deleted * 2 >= max(1, sum(t.size for t in self.trees)):
                    self.rebuild()
                return
        raise KeyError("point not present in forest")

    def rebuild(self) -> None:
        pts = [p for t in self.trees for p in t.alive_points()]
        self.trees = [PartitionTree(pts)] if pts else []
        self.deleted = 0
        self.xs = sorted(p.x for p in pts)

    def min_count(self) -> Optional[int]:
        vals = [t.min_count() for t in self.trees]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def leftmost_valid(self, kq: int) -> Optional[PTPoint]:
        """Leftmost alive point with count <= kq via binary search on x,
        ties broken by smaller y."""
        if not self.xs:
            return None
        lo, hi = 0, len(self.xs) - 1
        if not any(t.exists_leftward(self.xs[hi], kq) for t in self.trees):
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if any(t.exists_leftward(self.xs[mid], kq) for t in self.trees):
                hi = mid
            else:
                lo = mid + 1
        x0 = self.xs[lo]
        best = None
        for t in self.trees:
            r = t.best_at_x(x0, kq)
            if r is not None and (best is None or r.y < best.y):
                best = r
        return best

    def audit(self) -> None:
        for t in self.trees:
            t.audit()

    @property
    def crossings(self) -> int:
        return sum(t.crossings for t in self.trees)
