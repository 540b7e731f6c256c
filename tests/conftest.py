import bisect
import random

import pytest

from sepkit.chains import DLine
from sepkit.core import Color, LabeledPoint
from sepkit.rat import Rat, den, num, rat


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
