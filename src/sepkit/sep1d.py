"""Fully dynamic 1D separators: MinMax, MinMis and k-mis MinMax.

The structure is a balanced search tree over point coordinates.  Each node
stores subtree color counts plus, per orientation, the minimum number of
misclassifications achievable by a separator positioned inside the subtree's
span.  A separator classifies one side red and the other blue; a point lying
exactly on the separator is always classified correctly.

Both orientations (red-left and blue-left) are maintained in the same nodes,
which is the "structure plus its mirrored version" device.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import Color
from .errors import DuplicateCoordinate, UnknownId
from .rat import R0, RatT, rat


class Orient1D(enum.Enum):
    # RED_LEFT means red points belong left of the separator (blue right).
    RED_LEFT = "RedLeft"
    BLUE_LEFT = "BlueLeft"


@dataclass(frozen=True)
class Point1D:
    x: RatT
    color: Color
    id: int

    @staticmethod
    def of(x, color: Color, id: int) -> "Point1D":
        return Point1D(rat(x), color, id)


@dataclass(frozen=True)
class Result1D:
    separator_x: Optional[RatT]
    mis: int
    max_dist: RatT
    orientation: Orient1D


class _Node:
    __slots__ = ("x", "color", "id", "left", "right", "h", "n", "R", "B",
                 "m_rl", "m_bl")

    def __init__(self, x: RatT, color: Color, id: int):
        self.x = x
        self.color = color
        self.id = id
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.h = 1
        self.n = 1
        self.R = 0
        self.B = 0
        self.m_rl = 0
        self.m_bl = 0
        self._pull()

    def _pull(self):
        l, r = self.left, self.right
        lh = l.h if l else 0
        rh = r.h if r else 0
        self.h = 1 + max(lh, rh)
        self.n = 1 + (l.n if l else 0) + (r.n if r else 0)
        red = 1 if self.color is Color.RED else 0
        blue = 1 - red
        lR, lB = (l.R, l.B) if l else (0, 0)
        rR, rB = (r.R, r.B) if r else (0, 0)
        self.R = lR + rR + red
        self.B = lB + rB + blue
        # Local MinMis per childOptimum: the optimum within this span is the
        # optimum of one of the child spans (empty children contribute 0).
        lm_rl = l.m_rl if l else 0
        rm_rl = r.m_rl if r else 0
        self.m_rl = min(lm_rl + red + rR, rm_rl + blue + lB)
        lm_bl = l.m_bl if l else 0
        rm_bl = r.m_bl if r else 0
        self.m_bl = min(lm_bl + blue + rB, rm_bl + red + lR)


def _rot_right(u: _Node) -> _Node:
    v = u.left
    u.left = v.right
    v.right = u
    u._pull()
    v._pull()
    return v


def _rot_left(u: _Node) -> _Node:
    v = u.right
    u.right = v.left
    v.left = u
    u._pull()
    v._pull()
    return v


def _balance(u: _Node) -> _Node:
    u._pull()
    lh = u.left.h if u.left else 0
    rh = u.right.h if u.right else 0
    if lh > rh + 1:
        ll = u.left.left.h if u.left.left else 0
        lr = u.left.right.h if u.left.right else 0
        if lr > ll:
            u.left = _rot_left(u.left)
        return _rot_right(u)
    if rh > lh + 1:
        rr = u.right.right.h if u.right.right else 0
        rl = u.right.left.h if u.right.left else 0
        if rl > rr:
            u.right = _rot_right(u.right)
        return _rot_left(u)
    return u


class Tree1D:
    """Balanced tree over 1D labeled points supporting k-mis MinMax queries.

    Single writer; queries do not mutate state and may run concurrently
    between updates.
    """

    def __init__(self):
        self.root: Optional[_Node] = None
        self._by_id: dict[int, RatT] = {}

    def __len__(self):
        return self.root.n if self.root else 0

    # -- updates ---------------------------------------------------------

    def insert(self, p: Point1D) -> None:
        if p.id in self._by_id:
            raise DuplicateCoordinate(f"id {p.id} already present")
        self.root = self._insert(self.root, p)
        self._by_id[p.id] = p.x

    def _insert(self, u: Optional[_Node], p: Point1D) -> _Node:
        if u is None:
            return _Node(p.x, p.color, p.id)
        if p.x == u.x:
            raise DuplicateCoordinate(f"coordinate {p.x} already present")
        if p.x < u.x:
            u.left = self._insert(u.left, p)
        else:
            u.right = self._insert(u.right, p)
        return _balance(u)

    def delete(self, id: int) -> None:
        if id not in self._by_id:
            raise UnknownId(f"no live point with id {id}")
        x = self._by_id.pop(id)
        self.root = self._delete(self.root, x)

    def _delete(self, u: _Node, x: RatT) -> Optional[_Node]:
        if x < u.x:
            u.left = self._delete(u.left, x)
        elif x > u.x:
            u.right = self._delete(u.right, x)
        else:
            if u.left is None:
                return u.right
            if u.right is None:
                return u.left
            succ = u.right
            while succ.left:
                succ = succ.left
            u.x, u.color, u.id = succ.x, succ.color, succ.id
            u.right = self._delete(u.right, succ.x)
        return _balance(u)

    # -- counting helpers -------------------------------------------------

    def _count_lt(self, x: RatT, color: Color) -> int:
        """Points of `color` with coordinate strictly less than x."""
        cnt = 0
        u = self.root
        while u:
            if u.x < x:
                if u.left:
                    cnt += u.left.R if color is Color.RED else u.left.B
                if u.color is color:
                    cnt += 1
                u = u.right
            else:
                u = u.left
        return cnt

    def _count_color(self, color: Color) -> int:
        if not self.root:
            return 0
        return self.root.R if color is Color.RED else self.root.B

    def _count_gt(self, x: RatT, color: Color) -> int:
        return self._count_color(color) - self._count_lt(x, color) - (
            1 if self._has_at(x, color) else 0
        )

    def _has_at(self, x: RatT, color: Color) -> bool:
        u = self.root
        while u:
            if x == u.x:
                return u.color is color
            u = u.left if x < u.x else u.right
        return False

    def _extreme(self, color: Color, want_max: bool) -> Optional[RatT]:
        u = self.root
        while u:
            if want_max:
                cnt = (u.right.R if u.right else 0) if color is Color.RED else (
                    u.right.B if u.right else 0)
                if cnt > 0:
                    u = u.right
                    continue
                if u.color is color:
                    return u.x
                u = u.left
            else:
                cnt = (u.left.R if u.left else 0) if color is Color.RED else (
                    u.left.B if u.left else 0)
                if cnt > 0:
                    u = u.left
                    continue
                if u.color is color:
                    return u.x
                u = u.right
        return None

    # -- query ------------------------------------------------------------

    def _mis_at(self, x: RatT, orient: Orient1D) -> int:
        """Misclassifications of a separator at position x (on-point correct)."""
        if orient is Orient1D.RED_LEFT:
            return self._count_lt(x, Color.BLUE) + self._count_gt(x, Color.RED)
        return self._count_lt(x, Color.RED) + self._count_gt(x, Color.BLUE)

    @staticmethod
    def _m(u: Optional[_Node], orient: Orient1D) -> int:
        if u is None:
            return 0
        return u.m_rl if orient is Orient1D.RED_LEFT else u.m_bl

    def _rightmost_valid(self, u: Optional[_Node], base: int, X: RatT,
                         k: int, orient: Orient1D) -> Optional[RatT]:
        """Rightmost point coordinate <= X whose at-point mis is <= k.

        `base` counts misclassifications contributed by points outside u's
        subtree for any separator positioned inside the span.
        """
        if u is None or base + self._m(u, orient) > k:
            return None
        l, r = u.left, u.right
        red = 1 if u.color is Color.RED else 0
        blue = 1 - red
        lR, lB = (l.R, l.B) if l else (0, 0)
        rR, rB = (r.R, r.B) if r else (0, 0)
        if orient is Orient1D.RED_LEFT:
            left_wrong, right_wrong = lB, rR               # blues left, reds right
            node_wrong_left, node_wrong_right = blue, red  # node left / right of sep
        else:
            left_wrong, right_wrong = lR, rB
            node_wrong_left, node_wrong_right = red, blue
        if u.x > X:
            return self._rightmost_valid(
                l, base + right_wrong + node_wrong_right, X, k, orient)
        # positions in the right subtree are the rightmost candidates
        res = self._rightmost_valid(
            r, base + left_wrong + node_wrong_left, X, k, orient)
        if res is not None:
            return res
        if base + left_wrong + right_wrong <= k:
            return u.x
        return self._rightmost_valid(
            l, base + right_wrong + node_wrong_right, X, k, orient)

    def _leftmost_valid(self, u: Optional[_Node], base: int, X: RatT,
                        k: int, orient: Orient1D) -> Optional[RatT]:
        """Mirror of _rightmost_valid: leftmost point coordinate >= X."""
        if u is None or base + self._m(u, orient) > k:
            return None
        l, r = u.left, u.right
        red = 1 if u.color is Color.RED else 0
        blue = 1 - red
        lR, lB = (l.R, l.B) if l else (0, 0)
        rR, rB = (r.R, r.B) if r else (0, 0)
        if orient is Orient1D.RED_LEFT:
            left_wrong, right_wrong = lB, rR
            node_wrong_left, node_wrong_right = blue, red
        else:
            left_wrong, right_wrong = lR, rB
            node_wrong_left, node_wrong_right = red, blue
        if u.x < X:
            return self._leftmost_valid(
                r, base + left_wrong + node_wrong_left, X, k, orient)
        res = self._leftmost_valid(
            l, base + right_wrong + node_wrong_right, X, k, orient)
        if res is not None:
            return res
        if base + left_wrong + right_wrong <= k:
            return u.x
        return self._leftmost_valid(
            r, base + left_wrong + node_wrong_left, X, k, orient)

    def _query_orient(self, k: int, orient: Orient1D) -> Optional[Result1D]:
        if self.root is None:
            return Result1D(None, 0, R0, orient)
        if self._m(self.root, orient) > k:
            return None
        if orient is Orient1D.RED_LEFT:
            inner_left, inner_right = Color.RED, Color.BLUE
        else:
            inner_left, inner_right = Color.BLUE, Color.RED
        xl = self._extreme(inner_left, want_max=True)    # rightmost left-color
        xr = self._extreme(inner_right, want_max=False)  # leftmost right-color
        if xl is None or xr is None:
            # one color absent: any separator beyond the extreme is perfect
            pos = xl if xr is None else xr
            return Result1D(pos, 0, R0, orient)
        s_max = (xl + xr) / 2
        mis_smax = self._mis_at(s_max, orient)
        if mis_smax <= k:
            val = max(xl - s_max, s_max - xr, R0)
            return Result1D(s_max, mis_smax, val, orient)
        # inseparable here (separable implies mis(s_max) = 0)
        pl = self._rightmost_valid(self.root, 0, s_max, k, orient)
        pr = self._leftmost_valid(self.root, 0, s_max, k, orient)
        best = None
        if pl is not None:
            best = (xl - pl, pl)
        if pr is not None:
            cand = (pr - xr, pr)
            if best is None or cand[0] < best[0] or (
                    cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        if best is None:
            return None
        val, pos = best
        return Result1D(pos, self._mis_at(pos, orient), val, orient)

    def query(self, k: int) -> Optional[Result1D]:
        """Optimal k-mis MinMax separator over both orientations.

        Ties are broken by smaller separator coordinate, then red-left
        orientation first.  None when every separator misclassifies > k.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.root is None:
            return Result1D(None, 0, R0, Orient1D.RED_LEFT)
        best = None
        for orient in (Orient1D.RED_LEFT, Orient1D.BLUE_LEFT):
            res = self._query_orient(k, orient)
            if res is None:
                continue
            if best is None:
                best = res
                continue
            if (res.max_dist, res.separator_x) < (best.max_dist, best.separator_x):
                best = res
        return best

    def min_mis(self) -> int:
        """Smallest achievable misclassification count over both orientations."""
        if self.root is None:
            return 0
        return min(self.root.m_rl, self.root.m_bl)

    # -- verification helper (tests) --------------------------------------

    def audit(self) -> None:
        """Recompute all annotations bottom-up and compare; raise on mismatch."""

        def walk(u: Optional[_Node]):
            if u is None:
                return
            walk(u.left)
            walk(u.right)
            snap = (u.h, u.n, u.R, u.B, u.m_rl, u.m_bl)
            u._pull()
            if snap != (u.h, u.n, u.R, u.B, u.m_rl, u.m_bl):
                raise AssertionError(f"stale annotations at x={u.x}")
            if abs((u.left.h if u.left else 0) - (u.right.h if u.right else 0)) > 1:
                raise AssertionError(f"unbalanced at x={u.x}")

        walk(self.root)
