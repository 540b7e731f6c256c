"""Envelopes and concave/convex chain decompositions of <=k-levels.

A chain is an x-monotone polyline whose pieces live on input lines.  The
lower <=k-level of a line set is covered by k+1 concave chains produced by a
sweep: chain j starts on the j-th lowest line at x = -infinity, and whenever
a line leaves the set of k+1 lowest lines (it is overtaken at the boundary),
its chain transfers to the overtaking line.  Transfers always decrease the
piece slope, so chains stay concave.  Upper levels are handled by negating
all lines, which swaps above/below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyInput, ValidationError
from .rat import Rat, RatT, den, homogeneous, num
from .scans import _far_index, exact_order, line_columns


class Direction(enum.Enum):
    LOWER = "Lower"
    UPPER = "Upper"


class ChainKind(enum.Enum):
    CONCAVE = "Concave"
    CONVEX = "Convex"


@dataclass(frozen=True)
class DLine:
    """A dual line y = m*x + c carrying the id of its source point."""

    id: int
    m: RatT
    c: RatT

    @cached_property
    def abc(self) -> tuple[int, int, int]:
        """Integer form (A, B, C): A*y = B*x + C with A > 0."""
        return homogeneous(self.m, self.c)

    @staticmethod
    def of_abc(id_: int, abc: tuple[int, int, int]) -> "DLine":
        """The line A*y = B*x + C, given with A > 0 and gcd(A, B, C) = 1,
        which is then its integer form: it is stored, not recomputed."""
        a, b, c = abc
        line = DLine(id_, Rat(b, a), Rat(c, a))
        line.__dict__["abc"] = abc      # where cached_property keeps it
        return line

    def y_at(self, x: RatT) -> RatT:
        return self.m * x + self.c

    def neg(self) -> "DLine":
        return DLine(self.id, -self.m, -self.c)


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
        return [(num(x), den(x)) for x in self.breakpoints()]

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


def envelope(lines: Sequence[DLine], direction: Direction, cols=None) -> Chain:
    """Lower or upper envelope as a single chain.  `cols` is
    line_columns(lines), if the caller has it.

    Lines are added by decreasing slope, the lowest of each slope first, to
    a stack of pieces; a new line pops the top piece while it crosses the
    top line at or left of that piece's left breakpoint.  The upper
    envelope is the same walk over the negated integer forms.  Crossings
    stay integer pairs, compared by cross-multiplication; a rational is
    built only for a returned breakpoint."""
    if not lines:
        raise EmptyInput("envelope of empty line set")
    a, b, c = line_columns(lines) if cols is None else cols
    if direction is Direction.UPPER:
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
    kind = ChainKind.CONCAVE if direction is Direction.LOWER else ChainKind.CONVEX
    return Chain(kind, [ChainPiece(lines[i], bounds[t], bounds[t + 1])
                        for t, i in enumerate(stack)])


def chain_decomposition(
    lines: Sequence[DLine], k: int, direction: Direction
) -> ChainSet:
    """min(k+1, n) chains covering all edges of the <=k-level."""
    if not lines:
        raise EmptyInput("chain decomposition of empty line set")
    if k < 0:
        raise ValueError("k must be >= 0")
    if direction is Direction.UPPER:
        low = chain_decomposition([l.neg() for l in lines], k, Direction.LOWER)
        return ChainSet([c.negated(ChainKind.CONVEX) for c in low.chains],
                        Direction.UPPER, k)
    n = len(lines)
    m = min(k + 1, n)
    a, b, c = line_columns(lines)
    # order at x = -infinity: bottom-to-top is decreasing slope, then
    # increasing intercept (parallel lines never swap)
    order = [lines[j] for j in _far_index(a, b, c, -1).tolist()]
    pos = {l.id: r for r, l in enumerate(order)}
    at = {r: l for r, l in enumerate(order)}
    # every crossing of lines i < j as (x, y) = (xn, yn) / den, in (x, y)
    # order, cut into runs at one point
    li, lj = np.triu_indices(n, 1)
    den = b[li] * a[lj] - b[lj] * a[li]
    cross = np.flatnonzero(den != 0)
    li, lj, den = li[cross], lj[cross], den[cross]
    sign = np.where(den < 0, -1, 1)
    xn = (c[lj] * a[li] - c[li] * a[lj]) * sign
    yn = (b[li] * c[lj] - b[lj] * c[li]) * sign
    den = den * sign
    ev, same = exact_order((xn, den), (yn, den))
    ids = [l.id for l in lines]
    ei, ej = li[ev].tolist(), lj[ev].tolist()
    bounds = np.flatnonzero(~same).tolist() + [len(ev)]
    # chain r rides the line currently at rank r while r < m; record the
    # (line, start_x) history per chain
    history: list[list[tuple[DLine, Optional[RatT]]]] = [
        [(at[r], None)] for r in range(m)
    ]
    chain_of: dict[int, int] = {at[r].id: r for r in range(m)}
    # process crossings grouped by point: 3+ concurrent lines reverse their
    # contiguous rank block in one step
    for s, e in zip(bounds, bounds[1:]):
        grp = {ids[i] for i in ei[s:e]} | {ids[j] for j in ej[s:e]}
        ranks = sorted(pos[i] for i in grp)
        lo, hi = ranks[0], ranks[-1]
        if hi - lo != len(ranks) - 1:
            raise ValidationError(
                "non-contiguous concurrent crossing block (degenerate input)"
            )
        block = [at[r] for r in ranks]            # bottom to top before x
        for r, l in zip(ranks, reversed(block)):
            pos[l.id] = r
            at[r] = l
        if not lo < m <= hi:
            continue
        leaving = [l for r, l in zip(ranks, block) if r < m <= lo + hi - r]
        entering = [l for r, l in zip(ranks, block) if r >= m > lo + hi - r]
        entering.sort(key=lambda l: pos[l.id])
        x = Rat(int(xn[ev[s]]), int(den[ev[s]]))
        for la, lb in zip(leaving, entering):
            idx = chain_of.pop(la.id)
            chain_of[lb.id] = idx
            history[idx].append((lb, x))
    chains = []
    for hist in history:
        pieces = []
        for i, (line, x0) in enumerate(hist):
            x1 = hist[i + 1][1] if i + 1 < len(hist) else None
            pieces.append(ChainPiece(line, x0, x1))
        chains.append(Chain(ChainKind.CONCAVE, pieces))
    return ChainSet(chains, Direction.LOWER, k)


def chain_pair_intersections(concave: Chain, convex: Chain) -> list[tuple[RatT, RatT]]:
    """Intersection points of a concave and a convex chain (at most 2), in
    x order.

    Walks the merged piece boundaries of f = concave - convex, a concave
    piecewise-linear function, with one index per chain, and reports its
    zero crossings (including touching points).  Signs of f are decided on
    the pieces' integer forms (`DLine.abc`) by cross-multiplication: at
    each boundary, and at x -> -infinity and +infinity.  The chains are
    continuous, so f crosses zero strictly inside a stretch where both
    chains are single lines exactly when its signs at the two ends are
    opposite and nonzero.  A rational is built only for a returned point.
    """
    cc, cv = concave.pieces, convex.pieces
    bc, bv = concave.bounds, convex.bounds
    i = j = 0
    s_lo = _far_sign(cc[0].line.abc, cv[0].line.abc, -1)
    out: list[tuple[RatT, RatT]] = []
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
        if s_hi == 0:
            x = (cc[i] if ends_c else cv[j]).x_hi
            out.append((x, Rat(B1 * p + C1 * q, A1 * q)))
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
              ) -> tuple[RatT, RatT]:
    """The crossing point of two non-parallel lines given in integer form."""
    A1, B1, C1 = la
    A2, B2, C2 = lb
    xn, xd = C2 * A1 - C1 * A2, B1 * A2 - B2 * A1
    return Rat(xn, xd), Rat(B1 * xn + C1 * xd, A1 * xd)


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
