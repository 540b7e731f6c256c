"""Exact scan machinery over dual-line arrangements.

Shared by the exact and approximate solvers.  Roles: "below" lines are
violated by a dual point strictly above them, "above" lines by a point
strictly below them, so mis(p) = #below-lines strictly below p plus
#above-lines strictly above p.

Every sweep works on the homogeneous integer form of the lines,
A*y = B*x + C with A > 0 (`DLine.abc`).  Line e crosses line j at
x = (C_j*A_e - C_e*A_j) / (B_e*A_j - B_j*A_e), an integer pair (num, den);
the sign of den before it is made positive says which line is below left
of the crossing, and den = 0 marks a parallel line.  `exact_order` sorts
such pairs: a stable sort by the float key num/den gives the order,
because correctly rounded division is monotone, and only runs of equal
float keys are compared exactly.  This is the floating-point
filter of Shewchuk 1997 ("Adaptive precision floating-point arithmetic and
fast robust geometric predicates") and of Bronnimann, Burnikel and Pion
2001 ("Interval arithmetic yields efficient dynamic filters for
computational geometry"): floats only order, every decision is exact.  The
arrays are int64 when every coefficient is below 2**25, so every product
is exact and below 2**53; otherwise they hold Python ints (dtype object),
whose int / int division is correctly rounded too.  Both run the same
code.  A rational is built only for a value that leaves the sweep, or to
sort a float-tied run of distinct values.

The side of a line at a rational point (x, y) = (p/q, r/s) is the sign of
A*r*q - (B*p + C*q)*s, that is of A*y - B*x - C times q*s > 0: positive
strictly above the line, zero on it, negative strictly below.
`side_of_line` decides one point in Python ints; `line_sides` decides a
batch of points against the `line_columns` arrays in one numpy pass.  It
works on the homogeneous point (X, Y, W) = (p*s, r*q, q*s) and stays in
int64 when the columns are int64 and max|A|*max|Y| + max|B|*max|X| +
max|C|*max|W|, which bounds every partial sum, fits in int64 (always so
for coefficients below 2**25 and coordinates below 2**36); otherwise it
computes on Python ints (dtype object).  No float is involved, so there is
nothing to filter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .rat import Rat, RatT, homogeneous
from .rat import den as rat_den, num as rat_num

if TYPE_CHECKING:
    from .chains import DLine


# ---------------------------------------------------------------------------
# Exact order of integer fractions
# ---------------------------------------------------------------------------

INT64_BOUND = 1 << 25


def line_columns(lines: Sequence[DLine], extra: Sequence[int] = ()):
    """The integer forms (A, B, C) of the lines as three numpy arrays:
    int64 when every coefficient and every entry of `extra` is below 2**25
    in magnitude (so products of two entries, and sums of two such
    products, are exact in float64), else dtype object holding Python
    ints."""
    cols = list(zip(*(l.abc for l in lines))) or [(), (), ()]
    small = max(max(map(abs, col), default=0) for col in (*cols, extra)
                ) < INT64_BOUND
    dtype = np.int64 if small else object
    return tuple(np.array(col, dtype=dtype) for col in cols)


def _float_key(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den correctly rounded, so monotone in the exact value."""
    try:
        return np.asarray(num / den, dtype=np.float64)
    except OverflowError:   # Python ints beyond the float range
        return np.array([_fdiv(int(n), int(d)) for n, d in zip(num, den)])


def _fdiv(n: int, d: int) -> float:
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _equal(num, den, i, j) -> np.ndarray:
    """num/den at index arrays i and j are exactly equal (den > 0)."""
    ni, di = num[i].astype(object), den[i].astype(object)
    nj, dj = num[j].astype(object), den[j].astype(object)
    return np.asarray(ni * dj == nj * di, dtype=bool)


def _sort_by(order: np.ndarray, num, den) -> tuple[np.ndarray, np.ndarray]:
    """Stable re-sort of the index array `order` by num/den, and its runs of
    equal values (see exact_order)."""
    key = _float_key(num, den)
    order = order[np.argsort(key[order], kind="stable")]
    ks = key[order]
    same = np.zeros(len(order), dtype=bool)
    tied = np.flatnonzero(ks[1:] == ks[:-1]) + 1
    if tied.size:
        same[tied] = _equal(num, den, order[tied - 1], order[tied])
        # a run of equal float keys holding distinct values: sort it exactly
        for run in np.split(tied, np.flatnonzero(np.diff(tied) != 1) + 1):
            s, e = int(run[0]) - 1, int(run[-1]) + 1
            if not same[s + 1:e].all():
                order[s:e] = sorted(order[s:e], key=lambda j: Fraction(
                    int(num[j]), int(den[j])))
                same[s + 1:e] = _equal(num, den, order[s:e - 1], order[s + 1:e])
    return order, same


def exact_order(*keys: tuple[np.ndarray, np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rationals num/den (den > 0) of each
    (num, den) key, the first key first: the order of
    sorted(range(n), key=lambda i: tuple(Fraction(num[i], den[i]) ...)).

    Returns (order, same): same[t] says the entries order[t - 1] and
    order[t] are equal on every key (same[0] is False), so the False
    entries start the runs of equal values.  Only float-tied neighbours
    are compared exactly.
    """
    order = np.arange(len(keys[0][0]))
    for num, den in reversed(keys):
        order, same = _sort_by(order, num, den)
    for num, den in keys[1:]:
        eq = np.flatnonzero(same)
        same[eq] = _equal(num, den, order[eq - 1], order[eq])
    return order, same


@dataclass
class Crossings:
    """The crossings of one line e with a line set, in x order (see
    `crossings`).  Index t is the t-th crossing."""

    start: int           # counted lines left of every crossing
    idx: np.ndarray      # the crossed line
    num: np.ndarray      # x = num/den, den > 0
    den: np.ndarray
    same: np.ndarray     # same[t]: crossing t is at the x of crossing t-1
    before: np.ndarray   # counted lines just before crossing t, one at a time
    adj: np.ndarray      # 1 where the crossed line is counted before it

    def x(self, t: int) -> RatT:
        return Rat(int(self.num[t]), int(self.den[t]))

    def end(self) -> int:
        """Counted lines right of every crossing."""
        return self.start + len(self.idx) - 2 * int(self.adj.sum())

    def mis(self) -> np.ndarray:
        """On-point count of each crossing: every line through the point
        is on it, so a run of equal x drops all its counted lines."""
        mis = self.before - self.adj
        if self.same.any():
            starts = np.flatnonzero(~self.same)
            run_mis = self.before[starts] - np.add.reduceat(self.adj, starts)
            mis = np.repeat(run_mis, np.diff(np.append(starts, len(mis))))
        return mis


def crossings(e: tuple[int, int, int], a, b, c, isb: np.ndarray) -> Crossings:
    """Crossings of the line e = (A, B, C) with the lines (a, b, c) of
    line_columns, where isb marks "below" lines (counted when strictly
    below the point) and the rest are "above" lines (counted when strictly
    above).  Lines parallel to e, e itself included, only count."""
    A, B, C = e
    num = c * A - C * a
    den = B * a - b * A
    par = den == 0
    bb = den < 0          # the crossed line is below e left of the crossing
    low = bb | (par & (num < 0))
    high = ~bb & (~par | (num > 0))
    start = int(np.count_nonzero(isb & low) + np.count_nonzero(~isb & high))
    idx = np.flatnonzero(~par)
    num = np.where(bb, -num, num)[idx]
    den = np.where(bb, -den, den)[idx]
    order, same = exact_order((num, den))
    idx = idx[order]
    adj = (isb[idx] == bb[idx]).astype(np.int64)
    delta = 1 - 2 * adj
    before = start + np.cumsum(delta) - delta
    return Crossings(start, idx, num[order], den[order], same, before, adj)


# ---------------------------------------------------------------------------
# Side of line
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1


def side_of_line(abc: tuple[int, int, int], x: RatT, y: RatT) -> int:
    """Sign of A*y - B*x - C for the line (A, B, C) at the point (x, y)."""
    A, B, C = abc
    q, s = rat_den(x), rat_den(y)
    v = A * rat_num(y) * q - (B * rat_num(x) + C * q) * s
    return (v > 0) - (v < 0)


def line_sides(cols, points: Sequence[tuple[RatT, RatT]]) -> np.ndarray:
    """side_of_line of every point (row) against every line (column) of the
    line_columns arrays cols, as a points-by-lines array of -1, 0 and 1."""
    hom = []    # the points as (p*s, r*q, q*s), with q*s > 0
    for x, y in points:
        p, q, r, s = rat_num(x), rat_den(x), rat_num(y), rat_den(y)
        hom.append((p * s, r * q, q * s))
    X, Y, W = list(zip(*hom)) or [(), (), ()]
    a, b, c = cols
    dtype = object
    if a.dtype == np.int64:
        # at least |A*Y - B*X - C*W|, each partial sum, and |X|, |Y|, |W|
        bound = sum(max(int(abs(col).max(initial=0)), 1)
                    * max(map(abs, h), default=0)
                    for col, h in ((a, Y), (b, X), (c, W)))
        if bound <= INT64_MAX:
            dtype = np.int64
    X, Y, W = (np.array(h, dtype=dtype).reshape(-1, 1) for h in (X, Y, W))
    a, b, c = (col.astype(dtype, copy=False) for col in cols)
    return np.sign(a * Y - b * X - c * W).astype(np.int8)


# ---------------------------------------------------------------------------
# Arrangement vertices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexRecord:
    x: RatT
    y: RatT
    mis: int


@dataclass
class VertexScanResult:
    vertices: list[VertexRecord]     # vertices with mis <= kmax
    min_vertex_mis: Optional[int]    # over all vertices, unfiltered
    min_cross_x: Optional[RatT]
    max_cross_x: Optional[RatT]
    count: int                       # total vertices scanned


def scan_vertices(
    below: Sequence[DLine], above: Sequence[DLine], kmax: int
) -> VertexScanResult:
    """All arrangement vertices with mis <= kmax, plus global stats."""
    lines = list(below) + list(above)
    n = len(lines)
    out: list[VertexRecord] = []
    min_mis = None
    count = 0
    lo = hi = None   # extreme crossing x as (num, den)
    if not lines:
        return VertexScanResult(out, None, None, None, 0)
    a, b, c = line_columns(lines)
    isb = np.arange(n) < len(below)
    for i, li in enumerate(lines):
        cr = crossings((a[i], b[i], c[i]), a, b, c, isb)
        rec = cr.idx > i
        nrec = int(np.count_nonzero(rec))
        if not nrec:
            continue
        count += nrec
        mis = cr.mis()
        mm = int(mis[rec].min())
        if min_mis is None or mm < min_mis:
            min_mis = mm
        first = int(np.argmax(rec))
        last = len(rec) - 1 - int(np.argmax(rec[::-1]))
        for t in (first, last):
            x = (int(cr.num[t]), int(cr.den[t]))
            if lo is None or x[0] * lo[1] < lo[0] * x[1]:
                lo = x
            if hi is None or x[0] * hi[1] > hi[0] * x[1]:
                hi = x
        for t in np.flatnonzero(rec & (mis <= kmax)):
            x = cr.x(t)
            out.append(VertexRecord(x, li.y_at(x), int(mis[t])))
    minx = Rat(*lo) if lo else None
    maxx = Rat(*hi) if hi else None
    return VertexScanResult(out, min_mis, minx, maxx, count)


# ---------------------------------------------------------------------------
# Far-gap analysis at x -> +-infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarGap:
    mis: int
    alpha_lo: Optional[RatT]   # slope range of paths staying in the gap
    alpha_hi: Optional[RatT]
    limit: RatT                # lim of vertical-error/|x|, minimized over alpha


def far_order(
    below: Sequence[DLine], above: Sequence[DLine], side: int
) -> list[tuple[DLine, bool]]:
    """(line, is_below) pairs bottom to top beyond every crossing on one side
    (-1 left, +1 right): by slope times side, then by intercept."""
    tagged = [(l, True) for l in below] + [(l, False) for l in above]
    if not tagged:
        return tagged
    a, b, c = line_columns([l for l, _ in tagged])
    order, _ = exact_order((b * side, a), (c, a))
    return [tagged[j] for j in order]


def gap_mis(order: Sequence[tuple[DLine, bool]]) -> list[int]:
    """mis of each gap of a bottom-to-top far order, the bottom gap first:
    the below-lines under the gap plus the above-lines over it."""
    mis = sum(1 for _, isb in order if not isb)
    out = [mis]
    for _, isb in order:
        mis += 1 if isb else -1
        out.append(mis)
    return out


def far_gaps(below: Sequence[DLine], above: Sequence[DLine], side: int) -> list[FarGap]:
    """Exact gap structure beyond all crossings on one side (-1 left, +1 right)."""
    tagged = far_order(below, above, side)
    if side < 0:
        m_red = max(l.m for l in below)
        m_blue = min(l.m for l in above)
    else:
        m_red = min(l.m for l in below)
        m_blue = max(l.m for l in above)

    def lim(alpha: RatT) -> RatT:
        if side < 0:
            return max(Rat(0), m_red - alpha, alpha - m_blue)
        return max(Rat(0), alpha - m_red, m_blue - alpha)

    n = len(tagged)
    gaps = []
    for i, mis in enumerate(gap_mis(tagged)):
        lo_line = tagged[i - 1][0] if i > 0 else None
        hi_line = tagged[i][0] if i < n else None
        if side < 0:
            alo = hi_line.m if hi_line else None
            ahi = lo_line.m if lo_line else None
        else:
            alo = lo_line.m if lo_line else None
            ahi = hi_line.m if hi_line else None
        a = (m_red + m_blue) / 2
        if alo is not None and a < alo:
            a = alo
        if ahi is not None and a > ahi:
            a = ahi
        gaps.append(FarGap(mis, alo, ahi, lim(a)))
    return gaps


# ---------------------------------------------------------------------------
# Column profiles (misclassification along a vertical line)
# ---------------------------------------------------------------------------


class ColumnProfile:
    """Sorted line heights at a fixed x with exact on-point mis values.

    Equal heights (concurrent lines) are grouped; the on-point value of a
    group counts below-lines strictly below and above-lines strictly above.
    """

    def __init__(self, below: Sequence[DLine], above: Sequence[DLine], x: RatT):
        self.x = x
        lines = list(below) + list(above)
        p, q = int(x.numerator), int(x.denominator)
        # line j at x = p/q has height (B_j*p + C_j*q) / (A_j*q)
        a, b, c = line_columns(lines, (p, q))
        hnum, hden = b * p + c * q, a * q
        order, same = exact_order((hnum, hden))
        starts = np.flatnonzero(~same)
        isb = (np.arange(len(lines)) < len(below))[order]
        nb_grp = np.add.reduceat(isb.astype(np.int64), starts)
        na_grp = np.diff(np.append(starts, len(order))) - nb_grp
        # counts strictly below / above each group of equal heights
        rb = np.cumsum(nb_grp) - nb_grp
        ba = len(lines) - len(below) - np.cumsum(na_grp) + na_grp
        self.heights: list[RatT] = [
            Rat(int(hnum[j]), int(hden[j])) for j in order[starts]]
        self.onpoint: list[int] = (rb + ba - na_grp).tolist()
        # interval[i] = mis strictly between group i-1 and i
        self.interval: list[int] = (rb + ba).tolist() + [len(below)]

    def mis_at(self, y: RatT) -> int:
        i = bisect.bisect_left(self.heights, y)
        if i < len(self.heights) and self.heights[i] == y:
            return self.onpoint[i]
        return self.interval[i]

    def nearest_valid_above(self, y: RatT, k: int) -> Optional[RatT]:
        """Smallest height >= y with on-point mis <= k."""
        i = bisect.bisect_left(self.heights, y)
        while i < len(self.heights):
            if self.onpoint[i] <= k:
                return self.heights[i]
            i += 1
        return None

    def nearest_valid_below(self, y: RatT, k: int) -> Optional[RatT]:
        i = bisect.bisect_right(self.heights, y) - 1
        while i >= 0:
            if self.onpoint[i] <= k:
                return self.heights[i]
            i -= 1
        return None

    def valid_near(
        self, y: RatT, k: int, neighbours: bool
    ) -> list[tuple[RatT, int]]:
        """Valid heights of a vertical search from y, as (height, mis): y
        itself if its mis is <= k, and the nearest valid heights at or above
        and at or below y when y is not valid (or always, with
        `neighbours`)."""
        out = []
        mis = self.mis_at(y)
        if mis <= k:
            out.append((y, mis))
            if not neighbours:
                return out
        for h in (self.nearest_valid_above(y, k),
                  self.nearest_valid_below(y, k)):
            if h is not None:
                out.append((h, self.mis_at(h)))
        return out


# ---------------------------------------------------------------------------
# Walk along a line segment collecting valid crossings
# ---------------------------------------------------------------------------


def segment_valid_crossings(
    m_e: RatT,
    c_e: RatT,
    x1: Optional[RatT],
    x2: Optional[RatT],
    below: Sequence[DLine],
    above: Sequence[DLine],
    k: int,
) -> list[tuple[RatT, RatT, int]]:
    """Crossing points of y = m_e*x + c_e (restricted to [x1, x2]) with any
    input line, whose exact on-point mis is <= k.  Returns (x, y, mis)."""
    lines = list(below) + list(above)
    if not lines:
        return []
    e = homogeneous(m_e, c_e)
    a, b, c = line_columns(lines, e)
    isb = np.arange(len(lines)) < len(below)
    # counts evolve along the full support line, from left of every crossing
    cr = crossings(e, a, b, c, isb)
    mis = cr.mis()
    out = []
    for t in np.flatnonzero(~cr.same & (mis <= k)):
        x = cr.x(t)
        if (x1 is None or x >= x1) and (x2 is None or x <= x2):
            out.append((x, m_e * x + c_e, int(mis[t])))
    return out
