"""Envelopes and concave/convex chain decompositions of <=k-levels.

A chain is an x-monotone polyline whose pieces live on input lines.  The
lower <=k-level of a line set is covered by k+1 concave chains: chain j
starts on the j-th lowest line at x = -infinity, and at each vertex where a
line leaves the k+1 lowest, its chain transfers to a line entering there.
Those vertices come from the vertex scan's band-filtered blocks
(`scans.level_swaps`); no other crossing is built or visited.  Transfers
always decrease the piece slope, so chains stay concave.  Upper levels are
handled by negating all lines, which swaps above/below.

A dual line (`DLine`) is stored as its primitive integer form; the sweeps
decide on it, and chain crossings leave as integer triples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, check_k
from .rat import Rat, RatT, homogeneous
from .scans import LineSet, exact_order, level_swaps


class Direction(enum.Enum):
    LOWER = "Lower"
    UPPER = "Upper"


class ChainKind(enum.Enum):
    CONCAVE = "Concave"
    CONVEX = "Convex"


@dataclass(frozen=True, init=False)
class DLine:
    """A dual line y = m*x + c carrying the id of its source point, stored
    as its integer form `abc` = (A, B, C): A*y = B*x + C with A > 0 and
    gcd 1, unique per line, so equality and hashing follow (id, abc).  `m`
    and `c` are rationals built when first read."""

    id: int
    abc: tuple[int, int, int]

    def __init__(self, id: int, m: RatT, c: RatT):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "abc", homogeneous(m, c))

    @staticmethod
    def of_abc(id_: int, abc: tuple[int, int, int]) -> "DLine":
        """The line A*y = B*x + C, given with A > 0 and gcd(A, B, C) = 1."""
        line = object.__new__(DLine)
        object.__setattr__(line, "id", id_)
        object.__setattr__(line, "abc", abc)
        return line

    @cached_property
    def m(self) -> RatT:
        return Rat(self.abc[1], self.abc[0])

    @cached_property
    def c(self) -> RatT:
        return Rat(self.abc[2], self.abc[0])

    def y_at(self, x: RatT) -> RatT:
        a, b, c = self.abc
        p, q = x.numerator, x.denominator
        return Rat(b * p + c * q, a * q)

    def neg(self) -> "DLine":
        a, b, c = self.abc
        return DLine.of_abc(self.id, (a, -b, -c))


def cross_x(a: DLine, b: DLine) -> Optional[RatT]:
    if a.m == b.m:
        return None
    return (b.c - a.c) / (a.m - b.m)


@dataclass(frozen=True)
class ChainPiece:
    line: DLine
    x_lo: Optional[RatT]  # None means -infinity
    x_hi: Optional[RatT]  # None means +infinity


class Chain:
    """x-monotone polyline; pieces abut exactly."""

    def __init__(self, kind: ChainKind, pieces: list[ChainPiece]):
        self.kind = kind
        self.pieces = pieces

    def __len__(self):
        return len(self.pieces)

    def value_at(self, x: RatT) -> RatT:
        return self.piece_at(x).line.y_at(x)

    def piece_at(self, x: RatT) -> ChainPiece:
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            xh = self.pieces[mid].x_hi
            if xh is not None and xh < x:
                lo = mid + 1
            else:
                hi = mid
        return self.pieces[lo]

    def breakpoints(self) -> list[RatT]:
        return [p.x_hi for p in self.pieces[:-1]]

    @cached_property
    def bounds(self) -> list[tuple[int, int]]:
        """The breakpoints as integer (num, den) pairs, den > 0."""
        return [(x.numerator, x.denominator) for x in self.breakpoints()]

    def check_shape(self) -> None:
        """Verify monotone slope ordering and that pieces abut."""
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.x_hi is None or b.x_lo is None or a.x_hi != b.x_lo:
                raise AssertionError("chain pieces do not abut")
            if self.kind is ChainKind.CONCAVE and b.line.m > a.line.m:
                raise AssertionError("concave chain with increasing slope")
            if self.kind is ChainKind.CONVEX and b.line.m < a.line.m:
                raise AssertionError("convex chain with decreasing slope")

    def negated(self, kind: ChainKind) -> "Chain":
        return Chain(
            kind, [ChainPiece(p.line.neg(), p.x_lo, p.x_hi) for p in self.pieces]
        )


@dataclass
class ChainSet:
    chains: list[Chain]
    direction: Direction
    k: int

    def __iter__(self):
        return iter(self.chains)

    def __len__(self):
        return len(self.chains)


def envelope(lines: Sequence[DLine] | LineSet, direction: Direction
             ) -> Chain:
    """Lower or upper envelope of the lines as a single chain; of a
    LineSet, the lower envelope of its below-lines or the upper envelope
    of its above-lines, on its columns.

    Lines are added by decreasing slope, the lowest of each slope first, to
    a stack of pieces; a new line pops the top piece while it crosses the
    top line at or left of that piece's left breakpoint.  The upper
    envelope is the same walk over the negated integer forms.  Crossings
    stay integer pairs, compared by cross-multiplication; a rational is
    built only for a returned breakpoint."""
    upper = direction is Direction.UPPER
    if not isinstance(lines, LineSet):
        lines = LineSet([], lines) if upper else LineSet(lines)
    part = slice(lines.nb, None) if upper else slice(lines.nb)
    chosen = lines.lines[part]
    if not chosen:
        raise EmptyInput("envelope of empty line set")
    a, b, c = (col[part] for col in lines.cols)
    if upper:
        b, c = -b, -c
    order, _ = exact_order((-b, a), (c, a))
    A, B, C = a.tolist(), b.tolist(), c.tolist()
    stack: list[int] = []
    xs: list[tuple[int, int]] = []  # xs[t] = crossing of stack[t], stack[t+1]
    for j in order.tolist():
        if stack and B[stack[-1]] * A[j] == B[j] * A[stack[-1]]:
            continue                # parallel to the top, and not below it
        while stack:
            i = stack[-1]
            # x = num/den with den > 0, as i is the steeper line
            num, den = C[j] * A[i] - C[i] * A[j], B[i] * A[j] - B[j] * A[i]
            if not xs or num * xs[-1][1] > xs[-1][0] * den:
                xs.append((num, den))
                break
            stack.pop()
            xs.pop()
        stack.append(j)
    bounds = [None] + [Rat(num, den) for num, den in xs] + [None]
    kind = ChainKind.CONVEX if upper else ChainKind.CONCAVE
    return Chain(kind, [ChainPiece(chosen[i], bounds[t], bounds[t + 1])
                        for t, i in enumerate(stack)])


def chain_decomposition(
    lines: Sequence[DLine], k: int, direction: Direction
) -> ChainSet:
    """min(k+1, n) chains covering all edges of the <=k-level."""
    if not lines:
        raise EmptyInput("chain decomposition of empty line set")
    check_k(k)
    if direction is Direction.UPPER:
        low = chain_decomposition([l.neg() for l in lines], k, Direction.LOWER)
        return ChainSet([c.negated(ChainKind.CONVEX) for c in low.chains],
                        Direction.UPPER, k)
    m = min(k + 1, len(lines))
    ls = LineSet(lines)
    # bottom to top at x = -infinity (by decreasing slope, then intercept,
    # then index), as the lines through a vertex are just left of it; just
    # right of it, they are as at x = +infinity
    left, right = ls.far(-1), ls.far(1)
    rank_left = np.argsort(left).tolist()
    rank_right = np.argsort(right).tolist()
    # chain r starts on the line of rank r: its (line, start x) history
    history = [[(lines[j], None)] for j in left[:m].tolist()]
    chain_of = {j: r for r, j in enumerate(left[:m].tolist())}
    for x, below, through in level_swaps(ls, k):
        # the lines through x among the m lowest, bottom to top, left and
        # right of it: each leaving line passes its chain to an entering one
        before = sorted(through, key=rank_left.__getitem__)[:m - below]
        after = sorted(through, key=rank_right.__getitem__)[:m - below]
        for la, lb in zip([j for j in before if j not in after],
                          [j for j in after if j not in before]):
            chain_of[lb] = r = chain_of.pop(la)
            history[r].append((lines[lb], x))
    chains = []
    for hist in history:
        pieces = []
        for i, (line, x0) in enumerate(hist):
            x1 = hist[i + 1][1] if i + 1 < len(hist) else None
            pieces.append(ChainPiece(line, x0, x1))
        chains.append(Chain(ChainKind.CONCAVE, pieces))
    return ChainSet(chains, Direction.LOWER, k)


def chain_pair_intersections(concave: Chain, convex: Chain
                             ) -> list[tuple[int, int, int]]:
    """Intersection points of a concave and a convex chain (at most 2), in
    x order, each as its primitive homogeneous triple (X, Y, W): the point
    (X/W, Y/W), with W > 0 and gcd(X, Y, W) = 1, unique per point.

    Walks the merged piece boundaries of f = concave - convex, a concave
    piecewise-linear function, with one index per chain, and reports its
    zero crossings (including touching points).  Signs of f are decided on
    the pieces' integer forms (`DLine.abc`) by cross-multiplication: at
    each boundary, and at x -> -infinity and +infinity.  The chains are
    continuous, so f crosses zero strictly inside a stretch where both
    chains are single lines exactly when its signs at the two ends are
    opposite and nonzero.  No rational is built.
    """
    cc, cv = concave.pieces, convex.pieces
    bc, bv = concave.bounds, convex.bounds
    i = j = 0
    s_lo = _far_sign(cc[0].line.abc, cv[0].line.abc, -1)
    out: list[tuple[int, int, int]] = []
    while True:
        la, lb = cc[i].line.abc, cv[j].line.abc
        # the stretch ends at the nearer of the two chains' next boundaries
        ends_c = i < len(bc) and (
            j == len(bv) or bc[i][0] * bv[j][1] <= bv[j][0] * bc[i][1])
        ends_v = j < len(bv) and (not ends_c or bv[j] == bc[i])
        if not (ends_c or ends_v):                  # the last stretch
            if s_lo * _far_sign(la, lb, 1) < 0:
                out.append(_crossing(la, lb))
            return out
        p, q = bc[i] if ends_c else bv[j]
        A1, B1, C1 = la
        A2, B2, C2 = lb
        # f(p/q) has the sign of (B1*p + C1*q)*A2 - (B2*p + C2*q)*A1
        v = (B1 * p + C1 * q) * A2 - (B2 * p + C2 * q) * A1
        s_hi = (v > 0) - (v < 0)
        if s_lo * s_hi < 0:
            out.append(_crossing(la, lb))
        if s_hi == 0:       # on line la at x = p/q
            out.append(_primitive(p * A1, B1 * p + C1 * q, A1 * q))
        if ends_c:
            i += 1
        if ends_v:
            j += 1
        s_lo = s_hi


def _far_sign(la: tuple[int, int, int], lb: tuple[int, int, int],
              side: int) -> int:
    """Sign of la - lb at x -> side * infinity (side -1 or 1) for two lines
    in integer form: that of the slope difference times side, or else that
    of the intercept difference."""
    v = ((la[1] * lb[0] - lb[1] * la[0]) * side
         or la[2] * lb[0] - lb[2] * la[0])
    return (v > 0) - (v < 0)


def _crossing(la: tuple[int, int, int], lb: tuple[int, int, int]
              ) -> tuple[int, int, int]:
    """The crossing point of two non-parallel lines given in integer form,
    as its primitive homogeneous triple."""
    A1, B1, C1 = la
    A2, B2, C2 = lb
    # x = xn/xd; on line la, y = (B1*xn + C1*xd) / (A1*xd)
    xn, xd = C2 * A1 - C1 * A2, B1 * A2 - B2 * A1
    return _primitive(xn * A1, B1 * xn + C1 * xd, A1 * xd)


def _primitive(X: int, Y: int, W: int) -> tuple[int, int, int]:
    """(X, Y, W) with W != 0, scaled to W > 0 and gcd 1."""
    g = gcd(X, Y, W) * (1 if W > 0 else -1)
    return X // g, Y // g, W // g


def _interior_point(
    x0: Optional[RatT], x1: Optional[RatT]
) -> RatT:
    if x0 is None and x1 is None:
        return Rat(0)
    if x0 is None:
        return x1 - 1
    if x1 is None:
        return x0 + 1
    return (x0 + x1) / 2
