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

Every sweep takes a `LineSet`: the dual lines of one analysis (an
orientation, a t-gon wedge, a chain cover, an LP's constraints), the
below-lines first, with what the sweeps share: the integer columns, under
the one int64 rule (`LineSet.columns`), and each side's far order and
extreme crossing, built once when first read.

The vertex scan (`scan_vertices`) keeps the vertices with mis <= kmax.  A
band filter (`_band_rows`) first drops the lines that cannot pass through
such a vertex; floats only pick its bounds, and every drop holds exactly.
Each line left is swept against all n lines in blocks of rows, so every
mis is exact: one 2-D numpy pass computes a block's crossings, sorts each
row by float key and takes the running counts as a cumulative sum along
it.  A block holds at most SCAN_BLOCK crossings (an eighth of that on
Python ints), whatever n is.  A row with two equal float keys (concurrent
lines, or distinct values that round alike) is redone exactly by the
per-line `crossings`.  Given a slab of x (a t-gon wedge's slopes), the
filter cuts only the slab and the scan records only the vertices in it,
decided on float keys with an exact fallback at the walls.  With every
line a below-line (nb = n), the same blocks give the chain covers the
vertices where a line leaves the k+1 lowest (`level_swaps`).  Far gaps keep
their mis from the integer far order and build a gap's limit only when it
is read; column profiles keep sorted integer heights and build a rational
only for a height they return.

The walk along a line segment (`segment_valid_crossings`, the MinMax
curve's pieces) crosses every piece with every line in the same 2-D blocks
of rows.  A piece's count just left of its x1 is its count left of every
crossing plus the +-1 steps of the crossings left of x1, a sum in any
order, so nothing is sorted to find it.  Only the crossings in [x1, x2],
decided on float keys with an exact check at a key equal to a wall's float,
are sorted and counted.  Each of those lowers the count by at most one,
and only if its line leaves the count there, so a piece whose count at x1
less the number of such crossings exceeds k has no valid crossing and is
skipped unsorted.

The side of a line at a point is decided on the point's homogeneous integer
form (X, Y, W), W > 0, the point (X/W, Y/W): the sign of A*Y - B*X - C*W,
that is of A*y - B*x - C times W, is positive strictly above the line, zero
on it, negative strictly below.  `point_columns` turns a batch of such
triples into three columns, and `line_sides` decides them against a
`LineSet`'s columns in one numpy pass.  It stays in int64 when both are
int64 and max|A|*max|Y| + max|B|*max|X| + max|C|*max|W|, which bounds every
partial sum, fits in int64 (always so for coefficients below 2**25 and
coordinates below 2**36); otherwise it computes on Python ints (dtype
object).  No float is involved, so there is nothing to filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import inf
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .rat import Rat, RatT

if TYPE_CHECKING:
    from .chains import DLine


# ---------------------------------------------------------------------------
# Exact order of integer fractions
# ---------------------------------------------------------------------------

INT64_BOUND = 1 << 25


class LineSet:
    """Dual lines, below + above (the below-lines first), with their integer
    columns `cols` (see `columns`), and each side's far order and extreme
    crossing, built when first read."""

    def __init__(self, below: Sequence[DLine], above: Sequence[DLine] = ()):
        self.below, self.above = list(below), list(above)
        self.lines, self.nb = self.below + self.above, len(self.below)
        abc = [l.abc for l in self.lines]
        try:
            flat = np.fromiter(chain.from_iterable(abc), np.int64, 3 * len(abc))
            self._mag = max(-int(flat.min(initial=0)), int(flat.max(initial=0)))
        except OverflowError:   # beyond int64
            flat, self._mag = np.array(abc, dtype=object), inf
        self.cols = tuple(flat.reshape(-1, 3).T.copy())
        self.cols = self.columns()      # the int64 rule
        self._far: dict[int, np.ndarray] = {}
        self._extreme: dict[int, Optional[RatT]] = {}

    def columns(self, *values: int):
        """The integer forms (A, B, C) as three numpy arrays: int64 when
        every coefficient, and every one of `values` (which the caller
        multiplies them by), is below 2**25 in magnitude, so products of two
        entries, and sums of two such products, are exact in float64; else
        dtype object holding Python ints."""
        if max((self._mag, *map(abs, values))) < INT64_BOUND:
            return self.cols
        return tuple(col.astype(object, copy=False) for col in self.cols)

    def far(self, side: int) -> np.ndarray:
        """The lines' indices bottom to top beyond every crossing on one side
        (-1 left, +1 right), built once."""
        if side not in self._far:
            self._far[side] = _far_index(*self.cols, side)
        return self._far[side]

    def extreme(self, side: int) -> Optional[RatT]:
        """The x of the leftmost (side -1) or rightmost (side 1) vertex, None
        if every pair is parallel, built once.  The lines through it are
        contiguous in the far order on that side, so two of them, not
        parallel, are adjacent there: only adjacent pairs are crossed."""
        if side not in self._extreme:
            a, b, c = self.cols
            i, j = self.far(side)[:-1], self.far(side)[1:]
            num = c[j] * a[i] - c[i] * a[j]
            den = b[i] * a[j] - b[j] * a[i]
            num, den = np.where(den < 0, -num, num), np.abs(den)
            cross = np.flatnonzero(den != 0)
            num, den = num[cross], den[cross]
            self._extreme[side] = None if not cross.size else Rat(
                *_exact_extreme(num, den, _float_key(num, den), side < 0))
        return self._extreme[side]


def _float_key(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den correctly rounded, so monotone in the exact value."""
    try:
        return np.asarray(num / den, dtype=np.float64)
    except OverflowError:   # Python ints beyond the float range
        return np.array([fdiv(int(n), int(d)) for n, d in
                         zip(num.ravel(), den.ravel())]).reshape(num.shape)


def fdiv(n: int, d: int) -> float:
    """n/d correctly rounded; beyond the float range, +-inf."""
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


def _cross(A, B, C, a, b, c, isb: np.ndarray):
    """Crossings of the lines (A, B, C) (scalars, or columns of shape
    (r, 1)) with the lines (a, b, c) of LineSet columns, isb as in
    `crossings`: (num, den, par, bb, start), with x = num/den and den > 0
    (den = 1 at a parallel line, par), bb where the crossed line is below
    left of the crossing, and start the counted lines left of every
    crossing."""
    num = c * A - C * a
    den = B * a - b * A
    par = den == 0
    bb = den < 0
    low = bb | (par & (num < 0))
    high = ~bb & (~par | (num > 0))
    start = (np.count_nonzero(isb & low, axis=-1)
             + np.count_nonzero(~isb & high, axis=-1))
    num = np.where(bb, -num, num)
    den = np.abs(den)
    den[par] = 1
    return num, den, par, bb, start


def crossings(e: tuple[int, int, int], a, b, c, isb: np.ndarray) -> Crossings:
    """Crossings of the line e = (A, B, C) with the lines (a, b, c) of
    LineSet columns, where isb marks "below" lines (counted when strictly
    below the point) and the rest are "above" lines (counted when strictly
    above).  Lines parallel to e, e itself included, only count."""
    num, den, par, bb, start = _cross(*e, a, b, c, isb)
    idx = np.flatnonzero(~par)
    order, same = exact_order((num[idx], den[idx]))
    idx = idx[order]
    return _counted(int(start), idx, num[idx], den[idx], same,
                    isb[idx] == bb[idx])


def _counted(start: int, idx, num, den, same, adj) -> Crossings:
    """The Crossings of the lines idx in x order, from the count left of
    them all and adj (see Crossings)."""
    adj = adj.astype(np.int64)
    delta = 1 - 2 * adj
    before = start + np.cumsum(delta) - delta
    return Crossings(start, idx, num, den, same, before, adj)


# ---------------------------------------------------------------------------
# Side of line
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1


def point_columns(points: Sequence[tuple[int, int, int]]):
    """The homogeneous integer points (X, Y, W), W > 0, the point (X/W,
    Y/W), as three numpy columns: int64 when every entry is at most
    INT64_MAX in magnitude, else dtype object holding Python ints."""
    try:
        flat = np.array(points, dtype=np.int64).reshape(-1, 3)
        if flat.size and int(flat.min()) < -INT64_MAX:
            raise OverflowError
    except OverflowError:
        flat = np.array(points, dtype=object).reshape(-1, 3)
    return tuple(flat.T.copy())


def line_sides(cols, pcols) -> np.ndarray:
    """Sign of A*y - B*x - C of every point (row) of the point_columns
    arrays pcols against every line (column) of the LineSet columns cols,
    as a points-by-lines array of -1, 0 and 1."""
    a, b, c = cols
    dtype = object
    if all(h.dtype == np.int64 for h in (a, *pcols)):
        # at least |A*Y - B*X - C*W| and each partial sum
        bound = sum(max(int(abs(col).max(initial=0)), 1)
                    * int(abs(h).max(initial=0))
                    for col, h in zip(cols, (pcols[1], pcols[0], pcols[2])))
        if bound <= INT64_MAX:
            dtype = np.int64
    X, Y, W = (h.astype(dtype, copy=False).reshape(-1, 1) for h in pcols)
    a, b, c = (col.astype(dtype, copy=False) for col in cols)
    return np.sign(a * Y - b * X - c * W).astype(np.int8)


# ---------------------------------------------------------------------------
# Arrangement vertices
# ---------------------------------------------------------------------------

# Crossings computed at once by the vertex scan on int64 arrays (an eighth
# of that on Python ints): a block of rows holds at most this many, which
# bounds its arrays whatever n is.
SCAN_BLOCK = 1 << 14

# Lines per slab of the vertex-scan filter: n lines are cut into about
# n // SLAB_LINES slabs.
SLAB_LINES = 16

# Relative error allowance of a line's float value (B*w + C) / A at a float
# wall w: a few roundings of the coefficients and the three operations stay
# below 5 units in the last place; the absolute term covers underflow.
_REL_ERR = 8 * 2.0 ** -53
_ABS_ERR = 1e-300


@dataclass(frozen=True)
class VertexRecord:
    x: RatT
    y: RatT
    mis: int


@dataclass
class VertexScanResult:
    vertices: list[VertexRecord]     # vertices with mis <= kmax (in the slab)
    min_vertex_mis: Optional[int]    # their least mis, None if there are none
    min_cross_x: Optional[RatT]
    max_cross_x: Optional[RatT]
    count: int                       # crossings computed: band rows x lines


@dataclass
class _Block:
    """The crossings of a block of rows with every line, each row in x
    order: position t of row i is its t-th crossing, with the line
    `order[i, t]` and the on-point count `mis` (see `crossings`); same[i,
    t] says it is at the x of position t - 1.  Positions t >= ncross[i] are
    parallel lines; num and den are indexed by line, not by position."""

    ncross: np.ndarray
    order: np.ndarray
    mis: np.ndarray
    same: np.ndarray
    num: np.ndarray
    den: np.ndarray


def _block_crossings(rows: np.ndarray, a, b, c, isb: np.ndarray) -> _Block:
    """`crossings` of the lines `rows` (an index array) in one 2-D pass.  A
    row where two crossings share a float key is redone exactly by
    `crossings`."""
    n = len(a)
    A, B, C = a[rows, None], b[rows, None], c[rows, None]
    num, den, par, bb, start = _cross(A, B, C, a, b, c, isb)
    ncross = n - np.count_nonzero(par, axis=1)
    key = _float_key(num, den)
    key[par] = np.inf              # parallel lines sort last
    # unless a crossing's key overflowed to inf too: redo that row
    tied = np.count_nonzero(key == np.inf, axis=1) > n - ncross
    order = np.argsort(key, axis=1)
    key = np.take_along_axis(key, order, axis=1)
    tied |= ((np.arange(1, n) < ncross[:, None])
             & (key[:, 1:] == key[:, :-1])).any(axis=1)
    adj = (isb[order] == np.take_along_axis(bb, order, axis=1)).astype(np.int64)
    delta = 1 - 2 * adj
    mis = start[:, None] + np.cumsum(delta, axis=1) - delta - adj
    same = np.zeros(order.shape, dtype=bool)    # distinct float keys elsewhere
    for i in np.flatnonzero(tied):
        cr = crossings((A[i, 0], B[i, 0], C[i, 0]), a, b, c, isb)
        order[i, :len(cr.idx)] = cr.idx
        mis[i, :len(cr.idx)] = cr.mis()
        same[i, :len(cr.idx)] = cr.same
    return _Block(ncross, order, mis, same, num, den)


def _exact_extreme(num, den, key, lowest: bool) -> tuple[int, int]:
    """The least (or, unless `lowest`, the greatest) of the rationals
    num/den: only entries at the extreme float key can hold it."""
    at = np.flatnonzero(key == (key.min() if lowest else key.max()))
    t = (min if lowest else max)(
        at, key=lambda t: Fraction(int(num[t]), int(den[t])))
    return int(num[t]), int(den[t])


def _far_index(a, b, c, side: int) -> np.ndarray:
    """The far order of the lines (a, b, c) on one side (see LineSet.far):
    by slope times side, then by intercept."""
    return exact_order((b * side, a), (c, a))[0]


def _slab_walls(a, b, c, lo: float, hi: float) -> np.ndarray:
    """Float walls from lo to hi, about len(a) // SLAB_LINES slabs, at
    quantiles of the crossings of a fixed sample that lie between them, so
    that slabs are narrow where vertices are dense.  The sample crosses
    each of the n >= 2 lines with 8 others, at offsets spread by a fixed
    multiplier."""
    n = len(a)
    t = np.arange(8 * n)
    i = t % n
    j = (i + 1 + t * 40503 % (n - 1)) % n
    den = b[i] * a[j] - b[j] * a[i]
    cross = np.flatnonzero(den != 0)
    x = _float_key((c[j] * a[i] - c[i] * a[j])[cross], den[cross])
    x = x[(lo < x) & (x < hi)]
    slabs = max(1, n // SLAB_LINES)
    at = np.arange(1, slabs) * len(x) // slabs
    inner = np.partition(x, at)[at] if x.size and at.size else x[:0]
    # increasing, as x[at] is; a repeated wall makes an empty slab
    return np.concatenate(([lo], np.clip(inner, lo, hi), [hi]))


def _wall_values(af, bf, cf, walls: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Float bounds (down, up), walls by lines, on each line's exact value
    (B*w + C) / A at each float wall w, from the columns made floats
    (af, bf, cf): the float value widened by the error allowance.  Where
    the float value is not finite, a bound is +-inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = walls[:, None] * bf
        val = (err + cf) / af
        err = (np.abs(err) + np.abs(cf)) * _REL_ERR / af + _ABS_ERR
        up = val + err
        val -= err
        return val, up


def _rat_float(x: RatT) -> float:
    return fdiv(x.numerator, x.denominator)


def _band_rows(lines: LineSet, k: int, lo: RatT, hi: RatT) -> np.ndarray:
    """The lines that can pass through a vertex with mis <= k and x in
    [lo, hi], in index order: every line through such a vertex is among
    them.

    At a point with mis <= k at most k below-lines lie strictly under it,
    so it is not above the (k+1)-th lowest below-line, nor below the
    (k+1)-th highest above-line.  Cut [lo, hi] into slabs at float walls
    (exact dyadic rationals).  In a slab, the (k+1)-th lowest below-line
    stays under the (k+1)-th least of the below-lines' larger wall values,
    whichever k+1 lines that picks; the
    (k+1)-th highest above-line likewise stays over the (k+1)-th greatest
    of the above-lines' smaller wall values.  A line wholly above the
    first bound or wholly below the second in a slab carries no such
    vertex there.  Wall values are floats widened by an error allowance
    (_REL_ERR), so every comparison that drops a line holds exactly.  A
    value that is not finite is nan or widened to +-inf: np.partition
    sorts nan last, and a comparison with nan is false, so it keeps its
    line and never tightens a bound."""
    n, nb = len(lines.lines), lines.nb
    if k >= nb and k >= n - nb:
        return np.arange(n)
    try:
        af, bf, cf = (col.astype(np.float64) for col in lines.cols)
    except OverflowError:       # Python ints beyond the float range
        return np.arange(n)
    # one float step outward holds the correctly rounded ends
    walls = _slab_walls(*lines.cols, np.nextafter(_rat_float(lo), -inf),
                        np.nextafter(_rat_float(hi), inf))
    keep = np.zeros(n, dtype=bool)
    # slabs in blocks of about SCAN_BLOCK values, as in the row pass
    step = max(1, SCAN_BLOCK // n)
    for s in range(0, len(walls) - 1, step):
        down, up = _wall_values(af, bf, cf, walls[s:s + step + 1])
        with np.errstate(invalid="ignore"):
            top = np.maximum(up[:-1], up[1:])           # a line's slab maximum
            bottom = np.minimum(down[:-1], down[1:])    # and minimum
            drop = np.zeros(top.shape, dtype=bool)
            if k < nb:
                ceiling = np.partition(top[:, :nb], k, axis=1)[:, k, None]
                drop |= bottom > ceiling
            if k < n - nb:
                floor = -np.partition(-bottom[:, nb:], k, axis=1)[:, k, None]
                drop |= top < floor
        keep |= ~drop.all(axis=0)
    return np.flatnonzero(keep)


def _within(num: np.ndarray, den: np.ndarray, lo: RatT, hi: RatT
            ) -> np.ndarray:
    """lo <= num/den <= hi for each entry (den > 0).  Correctly rounded
    division is monotone, so a float key on the far side of a wall's float
    decides; only a key equal to a wall's float is compared exactly."""
    key = _float_key(num, den)
    lo_f, hi_f = _rat_float(lo), _rat_float(hi)
    inside = (lo_f < key) & (key < hi_f)
    for t in np.flatnonzero((key == lo_f) | (key == hi_f)):
        inside[t] = lo <= Rat(int(num[t]), int(den[t])) <= hi
    return inside


def _rows_per_block(a) -> int:
    """Rows of a 2-D pass that crosses rows with the lines of column a: at
    most SCAN_BLOCK crossings, an eighth of that on Python ints (an entry
    then points to an object of several words)."""
    block = SCAN_BLOCK if a.dtype == np.int64 else SCAN_BLOCK // 8
    return max(1, block // len(a))


def _kept_blocks(lines: LineSet, kmax: int,
                 slab: Optional[tuple[RatT, RatT]] = None):
    """The vertices with mis <= kmax (and, with a slab, x in it), by blocks
    of rows (r, blk, keep): blk is `_block_crossings` of the rows r, run
    only on the lines `_band_rows` keeps between the extreme crossings, cut
    to the slab, and keep marks each such vertex once, on the row of the
    first line through it."""
    lo, hi = lines.extreme(-1), lines.extreme(1)
    if lo is None:
        return
    if slab is not None:
        lo, hi = max(lo, slab[0]), min(hi, slab[1])
        if lo > hi:
            return
    rows = _band_rows(lines, kmax, lo, hi)
    a, b, c = lines.cols
    n = len(a)
    isb = np.arange(n) < lines.nb
    step = _rows_per_block(a)
    for s in range(0, len(rows), step):
        r = rows[s:s + step]
        blk = _block_crossings(r, a, b, c, isb)
        keep = ((np.arange(n) < blk.ncross[:, None])
                & (blk.order > r[:, None]) & (blk.mis <= kmax))
        if slab is not None:
            i, t = np.nonzero(keep)
            j = blk.order[i, t]
            keep[i, t] = _within(blk.num[i, j], blk.den[i, j], lo, hi)
        yield r, blk, keep


def scan_vertices(lines: LineSet, kmax: int,
                  slab: Optional[tuple[RatT, RatT]] = None) -> VertexScanResult:
    """All arrangement vertices with mis <= kmax, plus stats.  A vertex is
    recorded once per pair of lines through it, on the row of the pair's
    first line in below + above order, rows in that order and each row in x
    order.  `slab` = (x_lo, x_hi) keeps only the vertices with x_lo <= x <=
    x_hi, and the band filter cuts only that part of the line; the extreme
    crossings stay global, and `count` is the crossings the scan computed,
    its band rows times the lines."""
    a, b, c = lines.cols
    out: list[VertexRecord] = []
    count = 0
    for r, blk, keep in _kept_blocks(lines, kmax, slab):
        count += len(r) * len(a)
        for i, t in zip(*np.nonzero(keep)):
            j = blk.order[i, t]
            p, q = int(blk.num[i, j]), int(blk.den[i, j])
            e = int(r[i])
            # line e at x = p/q: y = (B*p + C*q) / (A*q)
            y = Rat(int(b[e]) * p + int(c[e]) * q, int(a[e]) * q)
            out.append(VertexRecord(Rat(p, q), y, int(blk.mis[i, t])))
    return VertexScanResult(out, min((v.mis for v in out), default=None),
                            lines.extreme(-1), lines.extreme(1), count)


def least_mis(sets: Sequence[LineSet], bound: int, tried: int = -1) -> int:
    """The least of `bound` and the least mis of a vertex of any of the line
    sets, whose vertex scans found none with mis <= `tried` (>= -1).  Only
    a vertex below `bound` matters, so vertex scans that skip the vertex
    records try caps that double from `tried` (2*cap + 2, which grows from
    any cap >= -1) up to bound - 1."""
    cap, found = tried, None
    while found is None and cap < bound - 1:
        cap = min(2 * cap + 2, bound - 1)
        found = min((int(blk.mis[keep].min()) for lines in sets for _, blk, keep
                     in _kept_blocks(lines, cap) if keep.any()), default=None)
    return bound if found is None else found


def level_swaps(lines: LineSet, k: int) -> list[tuple[RatT, int, list[int]]]:
    """The vertices of the lines, every one a below-line, where a line
    leaves the k+1 lowest, in x order, as (x, below, the lines through it):
    `below` lie strictly under it and g pass through it, below <= k < below
    + g - 1, so no two share an x.  Each vertex is read on the row of its
    least line e in the vertex scan: the others through it are a run at one
    x there, in index order, save e's identical copies."""
    if k >= len(lines.lines) - 1 or lines.extreme(-1) is None:
        return []
    keys = [l.abc for l in lines.lines]
    twins: dict[tuple[int, int, int], list[int]] = {}
    for j, abc in enumerate(keys):
        twins.setdefault(abc, []).append(j)
    first, size = np.array([(twins[abc][0], len(twins[abc])) for abc in keys]).T
    out = []
    for r, blk, keep in _kept_blocks(lines, k):
        starts = np.flatnonzero(~blk.same)
        run = np.diff(np.append(starts, keep.size))[np.cumsum(~blk.same) - 1]
        run = run.reshape(keep.shape)       # the length of each position's run
        # keep at a run's first position: its least line is after e
        swap = (keep & ~blk.same & (first[r] == r)[:, None]
                & (k < blk.mis + run + size[r, None] - 1))
        for i, t in zip(*np.nonzero(swap)):
            j = blk.order[i, t]
            out.append((Rat(int(blk.num[i, j]), int(blk.den[i, j])),
                        int(blk.mis[i, t]), twins[keys[r[i]]]
                        + blk.order[i, t:t + run[i, t]].tolist()))
    return sorted(out, key=lambda v: v[0])


# ---------------------------------------------------------------------------
# Far-gap analysis at x -> +-infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarGap:
    mis: int
    alpha_lo: Optional[RatT]   # slope range of paths staying in the gap
    alpha_hi: Optional[RatT]
    limit: RatT                # lim of vertical-error/|x|, minimized over alpha


class FarGaps:
    """The gaps between the lines beyond every crossing on one side (-1
    left, +1 right), bottom to top (`LineSet.far`).  `mis` holds every gap's
    mis (the below-lines under it plus the above-lines over it), from the
    integer order; the lines in that order, and a gap's slope range and
    limit (its FarGap), are built when first read."""

    def __init__(self, lines: LineSet, side: int):
        self.side = side
        self._lines, self._nb = lines.lines, lines.nb
        self._index = lines.far(side)
        # the bottom gap has every above-line over it; passing a line adds a
        # below-line under the gap or takes an above-line off it
        step = np.where(self._index < self._nb, 1, -1)
        self.mis = (len(self._lines) - self._nb
                    + np.append(0, np.cumsum(step))).tolist()
        self._read: dict[int, FarGap] = {}

    @cached_property
    def order(self) -> list[DLine]:
        return [self._lines[j] for j in self._index.tolist()]

    def __getitem__(self, i: int) -> FarGap:
        gap = self._read.get(i)
        if gap is None:
            gap = self._read[i] = self._gap(i)
        return gap

    def __iter__(self):
        return (self[i] for i in range(len(self.mis)))

    @cached_property
    def _slopes(self) -> tuple[RatT, RatT]:
        """The below-slope and above-slope that bound the limits: those of
        the lowest below-line and the highest above-line in the far order
        (left: the greatest and the least slope; right: the reverse)."""
        nb, idx = self._nb, self._index.tolist()
        lo = next(j for j in idx if j < nb)
        hi = next(j for j in reversed(idx) if j >= nb)
        return self._lines[lo].m, self._lines[hi].m

    def _gap(self, i: int) -> FarGap:
        m_red, m_blue = self._slopes
        lo_line = self._lines[self._index[i - 1]] if i > 0 else None
        hi_line = self._lines[self._index[i]] if i < len(self._index) else None
        if self.side < 0:
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
        if self.side < 0:
            lim = max(Rat(0), m_red - a, a - m_blue)
        else:
            lim = max(Rat(0), a - m_red, m_blue - a)
        return FarGap(self.mis[i], alo, ahi, lim)


# the name the exact solver calls, which perfbench/spans.py times
far_gaps = FarGaps


# ---------------------------------------------------------------------------
# Column profiles (misclassification along a vertical line)
# ---------------------------------------------------------------------------


class ColumnProfile:
    """Sorted line heights at a fixed x with exact on-point mis values.

    Equal heights (concurrent lines) are grouped; the on-point value of a
    group counts below-lines strictly below and above-lines strictly above.
    The heights stay integer pairs (num, den), sorted exactly; a search
    bisects their float keys and compares only float-tied heights exactly,
    and a rational is built only for a height that is returned.
    """

    def __init__(self, lines: LineSet, x: RatT):
        self.x = x
        p, q = x.numerator, x.denominator
        # line j at x = p/q has height (B_j*p + C_j*q) / (A_j*q)
        a, b, c = lines.columns(p, q)
        hnum, hden = b * p + c * q, a * q
        order, same = exact_order((hnum, hden))
        starts = np.flatnonzero(~same)
        isb = (np.arange(len(a)) < lines.nb)[order]
        nb_grp = np.add.reduceat(isb.astype(np.int64), starts)
        na_grp = np.diff(np.append(starts, len(order))) - nb_grp
        # counts strictly below / above each group of equal heights
        rb = np.cumsum(nb_grp) - nb_grp
        ba = len(a) - lines.nb - np.cumsum(na_grp) + na_grp
        self._num, self._den = hnum[order[starts]], hden[order[starts]]
        self._key = _float_key(self._num, self._den)
        self._onpoint = rb + ba - na_grp
        # _interval[i] = mis strictly between group i-1 and i
        self._interval = np.append(rb + ba, lines.nb)

    @property
    def min_mis(self) -> int:
        """The least on-point mis of a height: no point of the column has
        less."""
        return int(self._onpoint.min())

    def _height(self, i: int) -> RatT:
        return Rat(int(self._num[i]), int(self._den[i]))

    def _find(self, y: RatT) -> tuple[int, bool]:
        """(number of heights below y, whether y is a height)."""
        r, s = y.numerator, y.denominator
        f = fdiv(r, s)
        lo = int(np.searchsorted(self._key, f, "left"))
        hi = int(np.searchsorted(self._key, f, "right"))
        for i in range(lo, hi):    # the float-tied heights, compared exactly
            d = int(self._num[i]) * s - r * int(self._den[i])
            if d >= 0:
                return i, d == 0
        return hi, False

    def mis_at(self, y: RatT) -> int:
        i, on = self._find(y)
        return int(self._onpoint[i] if on else self._interval[i])

    def _valid_above(self, y: RatT, k: int) -> Optional[int]:
        i, _ = self._find(y)
        ok = np.flatnonzero(self._onpoint[i:] <= k)
        return i + int(ok[0]) if ok.size else None

    def _valid_below(self, y: RatT, k: int) -> Optional[int]:
        i, on = self._find(y)
        ok = np.flatnonzero(self._onpoint[:i + on] <= k)
        return int(ok[-1]) if ok.size else None

    def nearest_valid_above(self, y: RatT, k: int) -> Optional[RatT]:
        """Smallest height >= y with on-point mis <= k."""
        i = self._valid_above(y, k)
        return None if i is None else self._height(i)

    def nearest_valid_below(self, y: RatT, k: int) -> Optional[RatT]:
        i = self._valid_below(y, k)
        return None if i is None else self._height(i)

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
        for i in (self._valid_above(y, k), self._valid_below(y, k)):
            if i is not None:
                out.append((self._height(i), int(self._onpoint[i])))
        return out


# ---------------------------------------------------------------------------
# Walk along a line segment collecting valid crossings
# ---------------------------------------------------------------------------


def segment_valid_crossings(
    segments: Sequence[tuple[DLine, Optional[RatT], Optional[RatT]]],
    lines: LineSet,
    k: int,
) -> list[tuple[RatT, RatT, int]]:
    """Crossing points of each segment (e, x1, x2), the line e restricted
    to [x1, x2] (None: unbounded), with any of the lines, whose exact
    on-point mis is <= k; the segments in order, each in x order.  Returns
    (x, y, mis).

    One 2-D pass crosses every segment with every line; only the crossings
    in [x1, x2] are sorted, and a segment whose count at x1, less its
    in-range crossings whose line leaves the count, exceeds k sorts
    nothing (see the module docstring)."""
    if not lines.lines:
        return []
    es = [e.abc for e, _, _ in segments]
    a, b, c = lines.columns(*chain.from_iterable(es))
    isb = np.arange(len(a)) < lines.nb
    step = _rows_per_block(a)
    out: list[tuple[RatT, RatT, int]] = []
    for s in range(0, len(segments), step):
        out += _segment_block(segments[s:s + step], es[s:s + step],
                              a, b, c, isb, k)
    return out


def _segment_block(segments, es, a, b, c, isb: np.ndarray, k: int):
    """segment_valid_crossings of a block of segments, whose integer forms
    are es."""
    E = np.array(es, dtype=a.dtype)
    num, den, par, bb, start = _cross(E[:, :1], E[:, 1:2], E[:, 2:], a, b,
                                      c, isb)
    key = _float_key(num, den)
    x1 = np.array([-inf if s[1] is None else _rat_float(s[1])
                   for s in segments])
    x2 = np.array([inf if s[2] is None else _rat_float(s[2])
                   for s in segments])
    # a key on the far side of a wall's float decides; a key equal to it is
    # compared exactly
    left = ~par & (key < x1[:, None])
    right = key > x2[:, None]
    for i, t in zip(*np.nonzero(~par & ((key == x1[:, None])
                                        | (key == x2[:, None])))):
        p, q, (_, lo, hi) = int(num[i, t]), int(den[i, t]), segments[i]
        left[i, t] = lo is not None and p * lo.denominator < lo.numerator * q
        right[i, t] = hi is not None and p * hi.denominator > hi.numerator * q
    inside = ~par & ~left & ~right
    adj = isb == bb          # the crossed line leaves the count there
    at_x1 = (start + np.count_nonzero(left, axis=1)
             - 2 * np.count_nonzero(left & adj, axis=1))
    # each in-range crossing lowers the count by at most one, and only if
    # its line leaves the count: a bound on every in-range on-point mis
    least = at_x1 - np.count_nonzero(inside & adj, axis=1)
    out = []
    for i in np.flatnonzero((least <= k) & inside.any(axis=1)):
        idx = np.flatnonzero(inside[i])
        order, same = exact_order((num[i, idx], den[i, idx]))
        idx = idx[order]
        cr = _counted(int(at_x1[i]), idx, num[i, idx], den[i, idx], same,
                      adj[i, idx])
        mis = cr.mis()
        A, B, C = es[i]
        for t in np.flatnonzero(~same & (mis <= k)):
            p, q = int(cr.num[t]), int(cr.den[t])
            out.append((Rat(p, q), Rat(B * p + C * q, A * q), int(mis[t])))
    return out
