import bisect
import random
from math import gcd
from typing import Optional, Sequence

import numpy as np
import pytest

from sepkit.chains import Chain, ChainKind, ChainPiece, ChainSet, \
    Direction, DLine
from sepkit.core import Color, LabeledPoint
from sepkit.errors import EmptyInput, ValidationError
from sepkit.parttree import PTPoint
from sepkit.rat import Rat, RatT, rat
from sepkit.scans import LineSet, _far_index, exact_order, point_columns


def random_instance(rng, n, coord=50, ensure_both=True):
    """General-position instance: unique x, unique y, no three collinear."""
    from math import gcd

    pts = []
    used_x, used_y = set(), set()
    dirs = {}  # anchor id -> set of reduced directions
    while len(pts) < n:
        x, y = rng.randint(-coord, coord), rng.randint(-coord, coord)
        if x in used_x or y in used_y:
            continue
        collinear = False
        for i, p in enumerate(pts):
            dx, dy = x - int(p.point.x), y - int(p.point.y)
            g = gcd(abs(dx), abs(dy))
            d = (dx // g, dy // g)
            if d[0] < 0 or (d[0] == 0 and d[1] < 0):
                d = (-d[0], -d[1])
            if d in dirs[i]:
                collinear = True
                break
        if collinear:
            continue
        for i, p in enumerate(pts):
            dx, dy = x - int(p.point.x), y - int(p.point.y)
            g = gcd(abs(dx), abs(dy))
            d = (dx // g, dy // g)
            if d[0] < 0 or (d[0] == 0 and d[1] < 0):
                d = (-d[0], -d[1])
            dirs[i].add(d)
        dirs[len(pts)] = set()
        used_x.add(x)
        used_y.add(y)
        color = Color.RED if rng.random() < 0.5 else Color.BLUE
        pts.append(LabeledPoint.of(x, y, color, len(pts)))
    if ensure_both:
        if all(p.color is Color.RED for p in pts):
            pts[0] = LabeledPoint(pts[0].point, Color.BLUE, pts[0].id)
        if all(p.color is Color.BLUE for p in pts):
            pts[0] = LabeledPoint(pts[0].point, Color.RED, pts[0].id)
    return pts


def random_separable_instance(rng, n, coord=50, gap=8):
    """Strictly separable instance: blues shifted above a random slope line."""
    while True:
        m = Rat(rng.randint(-3, 3), rng.randint(1, 3))
        pts = []
        used_x, used_y = set(), set()
        nb = rng.randint(1, n - 1)
        for i in range(n):
            while True:
                x = rng.randint(-coord, coord)
                dy = rng.randint(0, coord)
                blue = i < nb
                y = m * x + (gap + dy if blue else -gap - dy)
                if x in used_x or y in used_y:
                    continue
                used_x.add(x)
                used_y.add(y)
                pts.append(
                    LabeledPoint.of(x, y, Color.BLUE if blue else Color.RED, i)
                )
                break
        return pts


def random_lines(rng, n, first_id=0, slope=400, icept=40):
    """Distinct-slope dual lines (concurrent triples possible and allowed)."""
    lines = []
    used = set()
    while len(lines) < n:
        m = rng.randint(-slope, slope)
        if m in used:
            continue
        used.add(m)
        lines.append(DLine(first_id + len(lines), Rat(m), Rat(rng.randint(-icept, icept))))
    return lines


DS1 = [  # 1D: R{1,5}, B{3,7}
    (Rat(1), Color.RED, 0),
    (Rat(5), Color.RED, 1),
    (Rat(3), Color.BLUE, 2),
    (Rat(7), Color.BLUE, 3),
]


@pytest.fixture
def ds2():
    return [
        LabeledPoint.of(0, 0, Color.RED, 0),
        LabeledPoint.of(1, 0, Color.RED, 1),
        LabeledPoint.of(0, 3, Color.BLUE, 2),
        LabeledPoint.of(1, 3, Color.BLUE, 3),
    ]


@pytest.fixture
def ds3():
    return [
        LabeledPoint.of(0, 0, Color.RED, 0),
        LabeledPoint.of(2, 2, Color.RED, 1),
        LabeledPoint.of(0, 2, Color.BLUE, 2),
        LabeledPoint.of(2, 0, Color.BLUE, 3),
    ]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def num(x) -> int:
    return x.numerator


def den(x) -> int:
    return x.denominator


def rat_decimal_str(x):
    """Render exactly as a decimal when the denominator is 2^a*5^b, else 'n/d'."""
    x = rat(x)
    n, d = num(x), den(x)
    if d == 1:
        return str(n)
    d2 = d
    e2 = e5 = 0
    while d2 % 2 == 0:
        d2 //= 2
        e2 += 1
    while d2 % 5 == 0:
        d2 //= 5
        e5 += 1
    if d2 != 1:
        return f"{n}/{d}"
    digits = max(e2, e5)
    scaled = abs(n) * 10**digits // d
    sign = "-" if n < 0 else ""
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def all_cells(ov):
    """Every cell of an OverlayFaceMap, slab by slab, bottom to top."""
    for col in ov.cells:
        yield from col


def locate(ov, x, y):
    """The OverlayFaceMap cell containing (x, y); points on walls and edges
    resolve upward."""
    xlo, xhi, ylo, yhi = ov.box
    if not (xlo <= x <= xhi and ylo <= y <= yhi):
        raise ValueError("point outside the clipped complex")
    s = min(bisect.bisect_right(ov.walls, x) - 1, len(ov.slabs) - 1)
    s = max(s, 0)
    idx = 0
    for e in ov.slabs[s]:
        if e.line.y_at(x) <= y:
            idx += 1
        else:
            break
    return ov.cells[s][idx]


def side_of_line(abc, x, y) -> int:
    """Sign of A*y - B*x - C for the line (A, B, C) at the rational point
    (x, y), one point at a time in Python ints: the reference for
    `scans.line_sides`."""
    A, B, C = abc
    q, s = den(x), den(y)
    v = A * num(y) * q - (B * num(x) + C * q) * s
    return (v > 0) - (v < 0)


# x and y values in groups whose floats tie (or overflow to the same
# infinity) while the exact values differ
TIED_X = [Rat(1, 3), Rat(1, 3) + Rat(1, 2**80), Rat(1, 3) - Rat(1, 2**80),
          Rat(2**60), Rat(2**60 + 1), Rat(-(2**60 + 1)), Rat(0),
          Rat(10**400), Rat(10**400 + 1), Rat(-(10**400))]
TIED_Y = [Rat(2**60), Rat(2**60 + 1), Rat(2**60 - 1), Rat(1, 3),
          Rat(1, 3) + Rat(1, 2**80), Rat(0), Rat(10**400), Rat(-(10**400))]


def hom(x, y) -> tuple[int, int, int]:
    """The rational point (x, y) = (p/q, r/s) as its primitive homogeneous
    triple: (p*s, r*q, q*s) over its gcd."""
    p, q, r, s = num(x), den(x), num(y), den(y)
    g = gcd(p * s, r * q, q * s)
    return p * s // g, r * q // g, q * s // g


def xy(xyw) -> tuple:
    """The homogeneous point (X, Y, W) as rationals (X/W, Y/W)."""
    X, Y, W = xyw
    return Rat(X, W), Rat(Y, W)


def fraction_point_columns(points):
    """`scans.point_columns` of the rational points (x, y) = (p/q, r/s), at
    (p*s, r*q, q*s), not reduced."""
    return point_columns([(num(x) * den(y), num(y) * den(x), den(x) * den(y))
                          for x, y in points])


def ptpoint(x, y, count: int, payload: object = None) -> PTPoint:
    """A table point at the rational point (x, y)."""
    return PTPoint(hom(x, y), count, payload)


def reference_chain_decomposition(
    lines: Sequence[DLine], k: int, direction: Direction
) -> ChainSet:
    """min(k+1, n) chains covering all edges of the <=k-level, by the
    all-pairs sweep: every crossing of two lines, sorted exactly and
    replayed one point at a time on the ranks of the lines.  The reference
    for `chains.chain_decomposition`."""
    if not lines:
        raise EmptyInput("chain decomposition of empty line set")
    if k < 0:
        raise ValueError("k must be >= 0")
    if direction is Direction.UPPER:
        low = reference_chain_decomposition([l.neg() for l in lines], k,
                                            Direction.LOWER)
        return ChainSet([c.negated(ChainKind.CONVEX) for c in low.chains],
                        Direction.UPPER, k)
    n = len(lines)
    m = min(k + 1, n)
    a, b, c = LineSet(lines).cols
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
