"""The exact side-of-line predicate and the violation counts built on it,
against the Fraction definition: points on a line and at crossings,
coefficients around 2**25 and homogeneous point coordinates around 2**36
and beyond (int64 products up to about 2**62, then the Python-int path),
and coefficients near 1e30 with thirds and sevenths."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from sepkit.chains import DLine, cross_x
from sepkit.core import PointR2
from sepkit.lpviol import violation_counts, violations_at
from sepkit.rat import Rat
from sepkit.scans import line_columns, line_sides
from tests.conftest import fraction_point_columns, hom, side_of_line

ANCHORS = [0, 1, 2**25, 2**36, 10**30]
DENS = [1, 1, 3, 7, 21]
POINT_DENS = [1, 2, 3, 7, 2**18, 2**18 + 1]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def reference_side(line: DLine, x, y) -> int:
    """Sign of y - (m*x + c) on Fractions."""
    return _sign(Fraction(y) - (Fraction(line.m) * Fraction(x) + Fraction(line.c)))


def reference_violations(x, y, red, blue) -> int:
    return (sum(reference_side(l, x, y) > 0 for l in red)
            + sum(reference_side(l, x, y) < 0 for l in blue))


def _near_anchor(draw):
    anchor = draw(st.sampled_from(ANCHORS))
    return draw(st.sampled_from([1, -1])) * (anchor + draw(st.integers(-3, 3)))


@st.composite
def lines_and_points(draw):
    """A few lines and points; a point is free, on a line, or at the
    crossing of two lines."""
    lines = [DLine(i, Rat(_near_anchor(draw), draw(st.sampled_from(DENS))),
                   Rat(_near_anchor(draw), draw(st.sampled_from(DENS))))
             for i in range(draw(st.integers(1, 5)))]
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        x = Rat(_near_anchor(draw), draw(st.sampled_from(POINT_DENS)))
        kind = draw(st.sampled_from(["free", "on", "cross"]))
        if kind == "cross":
            a, b = draw(st.sampled_from(lines)), draw(st.sampled_from(lines))
            x = cross_x(a, b) if cross_x(a, b) is not None else x
        if kind == "free":
            y = Rat(_near_anchor(draw), draw(st.sampled_from(POINT_DENS)))
        else:
            y = draw(st.sampled_from(lines)).y_at(x)
        pts.append((x, y))
    return lines, pts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=lines_and_points())
def test_sides_match_fraction_definition(case):
    lines, pts = case
    want = [[reference_side(l, x, y) for l in lines] for x, y in pts]
    assert [[side_of_line(l.abc, x, y) for l in lines] for x, y in pts] == want
    got = line_sides(line_columns(lines), fraction_point_columns(pts))
    assert got.shape == (len(pts), len(lines))
    assert got.tolist() == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=lines_and_points(), split=st.integers(0, 5))
def test_violation_counts_match_fraction_definition(case, split):
    lines, pts = case
    red, blue = lines[:split], lines[split:]
    want = [reference_violations(x, y, red, blue) for x, y in pts]
    assert violation_counts([hom(x, y) for x, y in pts], red, blue) == want
    assert [violations_at(PointR2(x, y), red, blue) for x, y in pts] == want


# (line (A, B, C) as y = B/A*x + C/A, x) around the bounds of the int64
# path: coefficients below 2**25, and products of a coefficient and a
# homogeneous point coordinate that fit in int64
BOUNDARY = [
    ((1, 2**25 - 1, -(2**25 - 1)), Rat(2047)),
    ((1, 2**25 - 1, 0), Rat(2049)),
    ((1, 2**25 - 1, 5), Rat(-(2**36) + 1)),
    ((1, 2**25, 0), Rat(1)),
    ((1, -(2**25), 3), Rat(-1, 3)),
    ((3, 2**25 - 1, 7), Rat(1, 3)),
    ((3, 2**25 - 1, 7), Rat(5, 2**18 + 1)),
    ((21, 10**30 + 1, -(10**30) + 2), Rat(10**30, 7)),
]


def _path(cols, x, y) -> str:
    """The dtype line_sides computes in for this one point."""
    p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
    if cols[0].dtype != np.int64:
        return "object"
    bound = sum(max(int(abs(col).max()), 1) * abs(h)
                for col, h in zip(cols, (r * q, p * s, q * s)))
    return "int64" if bound < 2**63 else "object"


def test_sides_at_dtype_boundaries():
    paths = []
    for abc, x in BOUNDARY:
        line = DLine(0, Rat(abc[1], abc[0]), Rat(abc[2], abc[0]))
        assert line.abc == abc
        cols = line_columns([line])
        on = line.y_at(x)
        for y in (on, on + 1, on - 1, on + Rat(1, 3), on - Rat(1, 7)):
            paths.append(_path(cols, x, y))
            want = reference_side(line, x, y)
            assert side_of_line(line.abc, x, y) == want
            assert line_sides(cols, fraction_point_columns([(x, y)])).tolist() == [[want]]
            assert violation_counts([hom(x, y)], [line], []) == [int(want > 0)]
            assert violation_counts([hom(x, y)], [], [line]) == [int(want < 0)]
    assert set(paths) == {"int64", "object"}


def test_violation_counts_in_chunks():
    # more points than one numpy pass takes: the chunks line up
    lines = [DLine(i, Rat(i - 3, 2), Rat(5 - i, 3)) for i in range(7)]
    pts = [(Rat(j % 23 - 11, 3), Rat(j % 17 - 8, 2)) for j in range(20000)]
    want = [reference_violations(x, y, lines[:3], lines[3:]) for x, y in pts]
    assert violation_counts([hom(x, y) for x, y in pts], lines[:3],
                            lines[3:]) == want


def test_sides_near_the_int64_product_bound():
    # coefficients just below 2**25 against integer points around 2**36 and
    # 2**37: int64 sums of products up to just below 2**63, then the
    # Python-int path
    a, b, c = 2**25 - 1, 2**25 - 2, 2**25 - 3
    line = DLine(0, Rat(b, a), Rat(c, a))
    assert line.abc == (a, b, c)
    cols = line_columns([line, line.neg()])
    paths = []
    for p in (2**36 - 1, -(2**36 - 1), 2**37 - 2**14, -(2**37 + 2**14),
              2**40 + 1, -(2**62)):
        x = Rat(p)
        under = (b * p + c) // a        # the integer height just under the line
        for y in (Rat(under), Rat(under + 1), line.y_at(x)):
            paths.append(_path(cols, x, y))
            want = [reference_side(line, x, y), reference_side(line.neg(), x, y)]
            assert [side_of_line(l.abc, x, y) for l in (line, line.neg())] == want
            assert line_sides(cols, fraction_point_columns([(x, y)])).tolist() == [want]
    assert set(paths) == {"int64", "object"}
