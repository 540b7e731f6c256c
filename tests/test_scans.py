"""The exact crossing order and the sweeps built on it, against Fraction
references: float-tied distinct values, equal values written differently,
and int64 as well as Python-int (dtype object) arrays.  The band-filtered
vertex scan is checked against the unfiltered block scan and a
one-line-at-a-time scan, in both role assignments, and the scan cut to a
slab against the unfiltered scan's vertices in that slab.  The walk along
curve pieces, which sorts only each piece's own x-range, is checked
against the walk that sweeps each piece's whole support line."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepkit import scans
from sepkit.chains import DLine, cross_x
from sepkit.core import Color, LabeledPoint
from sepkit.exactkmm import _analysis_for
from sepkit.rat import Rat, homogeneous
from sepkit.scans import (
    ColumnProfile,
    FarGaps,
    LineSet,
    VertexRecord,
    VertexScanResult,
    crossings,
    exact_order,
    scan_vertices,
    segment_valid_crossings,
)


def _reference_order(keys):
    n = len(keys[0][0])

    def value(i):
        return tuple(Fraction(int(num[i]), int(den[i])) for num, den in keys)

    order = sorted(range(n), key=value)
    same = [t > 0 and value(order[t]) == value(order[t - 1]) for t in range(n)]
    return order, same


@st.composite
def fraction_arrays(draw, big: bool, size: int):
    """num/den pairs near a few large anchors, so that distinct values share
    a float key; each value may be scaled by a common factor, so that equal
    values come with different (num, den).  Below 2**53 unless `big`."""
    if big:
        anchors, bmax, fmax = [0, 3, 10**30, -(2**70) + 1, 10**320], 2**40, 2**20
    else:
        anchors, bmax, fmax = [0, 5, 2**46, -(2**46) + 3], 16, 4
    nums, dens = [], []
    for _ in range(size):
        anchor = draw(st.sampled_from(anchors))
        b = draw(st.integers(1, bmax))
        a = draw(st.integers(-b, b))
        f = draw(st.integers(1, fmax))
        nums.append((anchor * b + a) * f)
        dens.append(b * f)
    dtype = object if big else np.int64
    return np.array(nums, dtype=dtype), np.array(dens, dtype=dtype)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), big=st.booleans(), size=st.integers(0, 30))
def test_exact_order_matches_fraction_sort(data, big, size):
    num, den = data.draw(fraction_arrays(big, size))
    order, same = exact_order((num, den))
    want_order, want_same = _reference_order([(num, den)])
    assert order.tolist() == want_order
    assert same.tolist() == want_same


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), big=st.booleans(), size=st.integers(0, 30))
def test_exact_order_two_keys(data, big, size):
    first = data.draw(fraction_arrays(big, size))
    second = data.draw(fraction_arrays(big, size))
    order, same = exact_order(first, second)
    want_order, want_same = _reference_order([first, second])
    assert order.tolist() == want_order
    assert same.tolist() == want_same


def test_float_ties_occur_in_both_dtypes():
    """The fixed cases below do exercise the exact re-sort."""
    for below, above, _ in (_INT64_CASE, _OBJECT_CASE):
        e = below[0]
        key = [float(cross_x(e, l)) for l in below[1:] + above
               if cross_x(e, l) is not None]
        exact = [cross_x(e, l) for l in below[1:] + above
                 if cross_x(e, l) is not None]
        assert any(key[i] == key[j] and exact[i] != exact[j]
                   for i in range(len(key)) for j in range(i))


# -- sweeps against brute force ---------------------------------------------


def _mis(x, y, below, above):
    return (sum(1 for l in below if l.y_at(x) < y)
            + sum(1 for l in above if l.y_at(x) > y))


def reference_scan(below, above, kmax):
    lines = below + above
    verts, all_mis, xs = [], [], []
    for i, li in enumerate(lines):
        events = sorted((x, j) for j, lj in enumerate(lines)
                        if j > i for x in [cross_x(li, lj)] if x is not None)
        for x, _ in events:
            y = li.y_at(x)
            mis = _mis(x, y, below, above)
            all_mis.append(mis)
            xs.append(x)
            if mis <= kmax:
                verts.append(VertexRecord(x, y, mis))
    return VertexScanResult(verts, _cut(all_mis, kmax),
                            min(xs, default=None), max(xs, default=None),
                            len(xs))


def _cut(all_mis, kmax):
    """The least vertex mis if it is <= kmax, else None."""
    least = min(all_mis, default=None)
    return least if least is not None and least <= kmax else None


def reference_segment(m_e, c_e, below, above, k):
    e = DLine(-1, m_e, c_e)
    xs = sorted({x for l in below + above for x in [cross_x(e, l)]
                 if x is not None})
    out = []
    for x in xs:
        y = m_e * x + c_e
        mis = _mis(x, y, below, above)
        if mis <= k:
            out.append((x, y, mis))
    return out


def _abc_line(i, a, b, c):
    """The line a*y = b*x + c."""
    return DLine(i, Rat(b, a), Rat(c, a))


# Lines 1 and 2 cross line 0 at distinct x with one float key
# (1.9999995231629768), line 1 at the larger x but listed first.  Every
# coefficient is below 2**25, so the sweeps run on int64.
_INT64_CASE = (
    [_abc_line(0, 2**24 + 1, 2**24 - 1, 0),
     _abc_line(1, 4194310, -4194298, 16777211),
     _abc_line(3, 1, 1, -2)],
    [_abc_line(2, 4194312, -4194295, 16777209),
     _abc_line(4, 1, -1, 3),
     _abc_line(5, 3, 2, 1)],
    Rat(2),
)

# Huge (about 1e30) and non-dyadic coefficients: Python-int arrays.  Lines
# 1-4 cross the x-axis (line 0) at N + 1/3, N + 1/7, N + 2/7 and N + 1/3,
# one float key; line 5 runs parallel to line 0.
_N = 10**30
_OBJECT_CASE = (
    [DLine(0, Rat(0), Rat(0)),
     DLine(1, Rat(1), -(_N + Rat(1, 3))),
     DLine(2, Rat(3), -3 * (_N + Rat(1, 7)))],
    [DLine(3, Rat(-2, 7), Rat(2, 7) * (_N + Rat(2, 7))),
     DLine(4, Rat(-1, 3), Rat(1, 3) * (_N + Rat(1, 3))),
     DLine(5, Rat(0), Rat(1, 3)),
     DLine(6, Rat(1, 7), Rat(5, 3))],
    _N + Rat(1, 3),
)


def test_line_columns_dtype():
    assert LineSet(*_INT64_CASE[:2]).cols[0].dtype == np.int64
    assert LineSet(*_OBJECT_CASE[:2]).cols[0].dtype == object


def test_scans_at_near_ties_match_reference():
    for below, above, x_col in (_INT64_CASE, _OBJECT_CASE):
        for kmax in range(len(below) + len(above) + 1):
            assert scan_vertices(LineSet(below, above), kmax) == \
                reference_scan(below, above, kmax)
        for e in below + above:
            for k in range(len(below) + len(above) + 1):
                assert segment_valid_crossings(
                    [(e, None, None)], LineSet(below, above), k) == \
                    reference_segment(e.m, e.c, below, above, k)
        _check_column(ColumnProfile(LineSet(below, above), x_col), below, above)


def _check_column(col, below, above):
    """The column profile's heights, on-point and interval counts against
    the Fraction definition.  With k = n every height is valid, so the
    nearest valid height over each gap between heights is the next one."""
    x, n = col.x, len(below) + len(above)
    heights = sorted({l.y_at(x) for l in below + above})
    gaps = [heights[0] - 1] + [(a + b) / 2 for a, b in zip(heights, heights[1:])] \
        + [heights[-1] + 1]
    assert [col.nearest_valid_above(y, n) for y in gaps] == heights + [None]
    assert [col.mis_at(y) for y in heights + gaps] == \
        [_mis(x, y, below, above) for y in heights + gaps]


def test_column_recasts_int64_columns_at_a_large_x():
    """Lines with coefficients near 2**24 have int64 columns, but at an x
    whose numerator or denominator is about 2**40 the heights' products
    pass int64: the profile recasts the columns it is given to Python
    ints, and leaves the shared ones int64."""
    rng = random.Random(4)
    lines = []
    for i in range(12):
        abc = (rng.randint(2**23, 2**24), rng.randint(-2**24, 2**24),
               rng.randint(-2**24, 2**24))
        g = math.gcd(*abc)
        lines.append(DLine.of_abc(i, tuple(v // g for v in abc)))
    shared = LineSet(lines[:5], lines[5:])
    assert shared.cols[0].dtype == np.int64
    for x in (Rat(2**40 + 1, 3), Rat(-3, 2**40 + 1), Rat(2**25), Rat(1, 2**25)):
        _check_column(ColumnProfile(shared, x), shared.below, shared.above)
    assert shared.cols[0].dtype == np.int64


@st.composite
def scaled_lines(draw):
    """A few lines on a small grid of slopes and intercepts (parallel and
    concurrent lines are common), then scaled and shifted by a huge or a
    non-dyadic amount, which keeps the arrangement's combinatorics."""
    scale = draw(st.sampled_from([Rat(1), Rat(1, 3), Rat(10**30, 7)]))
    n = draw(st.integers(1, 7))
    lines = []
    for i in range(n):
        m = Rat(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 3])))
        c = Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 7])))
        lines.append(DLine(i, m, c * scale))
    nb = draw(st.integers(0, n))
    return lines[:nb], lines[nb:]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=scaled_lines(), k=st.integers(0, 4))
def test_scans_match_reference_on_degenerate_lines(lines, k):
    below, above = lines
    assert scan_vertices(LineSet(below, above), k) == \
        reference_scan(below, above, k)
    e = (below + above)[0]
    assert segment_valid_crossings([(e, None, None)], LineSet(below, above),
                                   k) == \
        reference_segment(e.m, e.c, below, above, k)


# -- the band filter against the unfiltered scan ----------------------------


def unfiltered_scan(below, above, kmax):
    """The vertex scan over every row, in blocks of rows: the scan before
    the band filter.  The extreme crossings are the first and last of each
    row, and every crossing of a row is counted."""
    lines = below + above
    n = len(lines)
    a, b, c = LineSet(lines).cols
    isb = np.arange(n) < len(below)
    block = scans.SCAN_BLOCK if a.dtype == np.int64 else scans.SCAN_BLOCK // 8
    step = max(1, block // max(n, 1))
    out, all_mis, lo, hi, count = [], [], [], [], 0
    for r0 in range(0, n, step):
        rows = np.arange(r0, min(n, r0 + step))
        blk = scans._block_crossings(rows, a, b, c, isb)
        real = np.arange(n) < blk.ncross[:, None]
        if not real.any():
            continue
        count += int(blk.ncross.sum())
        all_mis.append(int(blk.mis[real].min()))
        r = np.flatnonzero(blk.ncross)
        for t, dest, lowest in ((np.zeros_like(r), lo, True),
                                (blk.ncross[r] - 1, hi, False)):
            j = blk.order[r, t]
            num, den = blk.num[r, j], blk.den[r, j]
            dest.append(scans._exact_extreme(num, den, scans._float_key(num, den),
                                             lowest))
        keep = real & (blk.order > rows[:, None]) & (blk.mis <= kmax)
        for i, t in zip(*np.nonzero(keep)):
            j = blk.order[i, t]
            x = Rat(int(blk.num[i, j]), int(blk.den[i, j]))
            out.append(VertexRecord(x, lines[rows[i]].y_at(x), int(blk.mis[i, t])))
    if not all_mis:
        return VertexScanResult(out, None, None, None, 0)
    return VertexScanResult(out, _cut(all_mis, kmax),
                            Rat(*min(lo, key=lambda x: Fraction(*x))),
                            Rat(*max(hi, key=lambda x: Fraction(*x))), count // 2)


def test_swapped_scan_at_near_ties_matches_reference():
    for below, above, _ in (_INT64_CASE, _OBJECT_CASE):
        for kmax in range(len(below) + len(above) + 1):
            got = scan_vertices(LineSet(above, below), kmax)
            assert got == reference_scan(above, below, kmax)
            assert got == unfiltered_scan(above, below, kmax)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=scaled_lines(), k=st.integers(0, 4),
       block=st.sampled_from([1, 8, scans.SCAN_BLOCK]))
def test_swapped_scan_matches_scan_with_roles_exchanged(lines, k, block):
    """Exact equality, the vertex order included, in both role
    assignments; small blocks put every row, or a few rows, in a block of
    its own."""
    below, above = lines
    with mock.patch.object(scans, "SCAN_BLOCK", block):
        direct = scan_vertices(LineSet(below, above), k)
        exchanged = scan_vertices(LineSet(above, below), k)
    assert exchanged == reference_scan(above, below, k)
    assert exchanged.vertices == reference_scan(above, below, k).vertices
    assert direct == reference_scan(below, above, k)


@st.composite
def grid_lines(draw):
    """Up to 30 lines on a small grid of slopes and integer intercepts:
    parallel and identical lines, pencils of concurrent lines, and vertices
    at dyadic x that a float wall can hit exactly.  Intercepts may be
    scaled by a huge non-dyadic amount, which keeps the combinatorics and
    puts the columns on Python ints."""
    scale = draw(st.sampled_from([Rat(1), Rat(1), Rat(10**30, 7)]))
    n = draw(st.integers(1, 30))
    lines = [DLine(i, Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2]))),
                   draw(st.integers(-4, 4)) * scale) for i in range(n)]
    nb = draw(st.integers(0, n))
    return lines[:nb], lines[nb:]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lines=grid_lines(), k=st.integers(0, 12),
       slab=st.sampled_from([1, 2, scans.SLAB_LINES]))
def test_filtered_scan_matches_unfiltered_on_grids(lines, k, slab):
    """One slab per line or two puts walls on vertices; k runs past the
    number of below-lines and of above-lines, where a side gives no
    bound."""
    below, above = lines
    with mock.patch.object(scans, "SLAB_LINES", slab):
        for bl, ab in ((below, above), (above, below)):
            got = scan_vertices(LineSet(bl, ab), k)
            assert got == unfiltered_scan(bl, ab, k)
            assert got.vertices == unfiltered_scan(bl, ab, k).vertices
            least = got.min_vertex_mis
            assert scans.least_mis([LineSet(bl, ab)], k + 1, k - 1) == \
                (k + 1 if least is None else least)


def test_filter_walls_on_vertices_and_dropped_rows():
    """On a grid, some walls sit exactly on vertices, the filter drops
    rows, and the scan still equals the unfiltered one for every k."""
    lines = [DLine(i, Rat(m), Rat(c)) for i, (m, c) in enumerate(
        (m, c) for m in range(-3, 4) for c in range(-3, 4))]
    below, above = lines[::2], lines[1::2]
    walls, rows = [], []
    real_walls, real_rows = scans._slab_walls, scans._band_rows

    def record_walls(*args):
        got = real_walls(*args)
        walls.extend(got.tolist())
        return got

    def record_rows(*args):
        got = real_rows(*args)
        rows.append(len(got))
        return got

    with mock.patch.object(scans, "SLAB_LINES", 1), \
            mock.patch.object(scans, "_slab_walls", record_walls), \
            mock.patch.object(scans, "_band_rows", record_rows):
        for k in range(len(lines) + 1):
            assert scan_vertices(LineSet(below, above), k) == \
                unfiltered_scan(below, above, k)
    xs = {v.x for v in unfiltered_scan(below, above, len(lines)).vertices}
    assert any(Fraction(w) in xs for w in walls)
    assert min(rows) < len(lines)


def _cut_to_slab(res, lo, hi):
    """The scan result with only the vertices of the closed slab [lo, hi]."""
    verts = [v for v in res.vertices if lo <= v.x <= hi]
    return VertexScanResult(verts, min((v.mis for v in verts), default=None),
                            res.min_cross_x, res.max_cross_x, res.count)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), lines=grid_lines(), k=st.integers(0, 12),
       slab_lines=st.sampled_from([1, 2, scans.SLAB_LINES]))
def test_slab_scan_is_the_scan_cut_to_the_slab(data, lines, k, slab_lines):
    """Slab ends on vertices, between them, and beyond every crossing on
    one or both sides (a slab that meets the crossings' range on one side
    only, or not at all), on int64 and Python-int columns."""
    below, above = lines
    xs = sorted({v.x for v in unfiltered_scan(below, above, 10**6).vertices})
    far = Rat(10**40)
    ends = [st.sampled_from([-far, far]),
            st.fractions(-5, 5, max_denominator=4)]
    if xs:
        ends.append(st.sampled_from(xs))
    lo, hi = sorted(data.draw(st.one_of(ends)) for _ in range(2))
    with mock.patch.object(scans, "SLAB_LINES", slab_lines):
        for bl, ab in ((below, above), (above, below)):
            got = scan_vertices(LineSet(bl, ab), k, slab=(lo, hi))
            want = _cut_to_slab(unfiltered_scan(bl, ab, k), lo, hi)
            assert got == want
            assert got.vertices == want.vertices


def test_slab_scan_rows():
    """A slab holding no crossing scans no row; a narrow slab keeps fewer
    rows than the whole line, and its vertices are exactly those with x in
    the closed slab, both ends on vertices."""
    lines = [DLine(i, Rat(m), Rat(c)) for i, (m, c) in enumerate(
        (m, c) for m in range(-3, 4) for c in range(-3, 4))]
    below = [l for l in lines if l.c >= 0]
    above = [l for l in lines if l.c < 0]
    rows = []
    real_block = scans._block_crossings

    def record_rows(r, *args):
        rows.append(len(r))
        return real_block(r, *args)

    full = scan_vertices(LineSet(below, above), 5)
    lo, hi = Rat(0), Rat(1, 2)
    with mock.patch.object(scans, "_block_crossings", record_rows):
        # at k = n the band filter keeps every line
        for k in (5, len(lines)):
            assert scan_vertices(LineSet(below, above), k,
                                 slab=(Rat(100), Rat(200))) \
                == VertexScanResult([], None, full.min_cross_x,
                                    full.max_cross_x, full.count)
        assert rows == []
        scan_vertices(LineSet(below, above), 5)
        whole = sum(rows)
        rows.clear()
        got = scan_vertices(LineSet(below, above), 5, slab=(lo, hi))
        assert 0 < sum(rows) < whole
    assert got == _cut_to_slab(full, lo, hi)
    assert {v.x for v in got.vertices} >= {lo, hi}
    assert len(got.vertices) < len(full.vertices)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), big=st.booleans())
def test_wall_values_bound_the_exact_values(data, big):
    """Each float bound holds the exact value (B*w + C) / A, or is not
    finite on its own side: coefficients that round when made floats, and
    walls from subnormal to near the float range."""
    coef = st.integers(-2**70, 2**70) if big else st.integers(-2**24, 2**24)
    n = data.draw(st.integers(1, 6))
    lines = [(data.draw(st.integers(1, 2**70 if big else 2**24)),
              data.draw(coef), data.draw(coef)) for _ in range(n)]
    a, b, c = (np.array(col, dtype=object if big else np.int64)
               for col in zip(*lines))
    walls = np.array(sorted(data.draw(st.lists(st.one_of(
        st.floats(-1e300, 1e300), st.sampled_from([0.0, 5e-324, -1e-310, 1e308])),
        min_size=2, max_size=5))))
    down, up = scans._wall_values(*(col.astype(np.float64) for col in (a, b, c)),
                                  walls)
    for w, (lo_row, hi_row) in zip(walls, zip(down, up)):
        for (A, B, C), lo, hi in zip(lines, lo_row, hi_row):
            exact = (B * Fraction(w) + C) / A
            assert lo != np.inf and hi != -np.inf
            assert not (np.isfinite(lo) and Fraction(lo) > exact)
            assert not (np.isfinite(hi) and Fraction(hi) < exact)


def test_wall_values_where_the_value_underflows():
    """3*w/7 at the least subnormal w rounds to 0: only the absolute term
    of the allowance lifts the upper bound over it."""
    walls = np.array([0.0, 5e-324])
    down, up = scans._wall_values(np.array([7.0]), np.array([3.0]),
                                  np.array([0.0]), walls)
    exact = 3 * Fraction(5e-324) / 7
    assert Fraction(float(down[1, 0])) <= exact <= Fraction(float(up[1, 0]))


def rowwise_scan(below, above, kmax):
    """The vertex scan one line at a time, through `crossings`."""
    lines = below + above
    a, b, c = LineSet(lines).cols
    isb = np.arange(len(lines)) < len(below)
    verts, all_mis, xs = [], [], []
    for i, li in enumerate(lines):
        cr = crossings((a[i], b[i], c[i]), a, b, c, isb)
        mis = cr.mis()
        for t in np.flatnonzero(cr.idx > i):
            x = cr.x(t)
            all_mis.append(int(mis[t]))
            xs.append(x)
            if mis[t] <= kmax:
                verts.append(VertexRecord(x, li.y_at(x), int(mis[t])))
    return VertexScanResult(verts, _cut(all_mis, kmax),
                            min(xs, default=None), max(xs, default=None),
                            len(xs))


def _many_lines(copied):
    """200 int64 lines: random ones, a pencil of 10 lines through (1, 0),
    and two exact copies of one random line ("free") or of one pencil line
    ("pencil"), or none.  Copies make every other row meet two lines at
    one x, so those rows take the exact per-row path; the copies' own rows
    do so only in the pencil."""
    rng = random.Random(9)
    lines = [DLine(i, Rat(rng.randint(-10**4, 10**4), rng.randint(1, 30)),
                   Rat(rng.randint(-10**4, 10**4), rng.randint(1, 30)))
             for i in range(188)]
    lines += [DLine(188 + j, Rat(j - 5, 3), Rat(5 - j, 3)) for j in range(10)]
    if copied:
        model = lines[0] if copied == "free" else lines[-1]
        lines[1] = DLine(1, model.m, model.c)
        lines[2] = DLine(2, model.m, model.c)
    rng.shuffle(lines)
    return lines


@pytest.mark.parametrize("copied", [None, "free", "pencil"])
def test_block_scan_over_several_blocks(copied):
    lines = _many_lines(copied)
    assert LineSet(lines).cols[0].dtype == np.int64
    assert 2 * (scans.SCAN_BLOCK // len(lines)) < len(lines)   # >= 3 blocks
    below, above = lines[:90], lines[90:]
    for kmax in (0, 60, len(lines)):
        res = scan_vertices(LineSet(below, above), kmax)
        exchanged = scan_vertices(LineSet(above, below), kmax)
        assert res == rowwise_scan(below, above, kmax)
        assert exchanged == rowwise_scan(above, below, kmax)
        assert exchanged == unfiltered_scan(above, below, kmax)
    assert res.vertices and exchanged.vertices


# -- the walk along curve pieces against the whole-line walk ---------------


def whole_line_valid_crossings(segments, lines, k):
    """segment_valid_crossings by sweeping each segment's whole support
    line: every crossing is sorted and counted, then cut to [x1, x2], on
    Python-int columns."""
    if not lines.lines:
        return []
    es = [e.abc for e, _, _ in segments]
    a, b, c = np.array([l.abc for l in lines.lines], dtype=object).T
    isb = np.arange(len(a)) < lines.nb
    out = []
    for (line, x1, x2), e in zip(segments, es):
        m_e, c_e = line.m, line.c
        cr = crossings(e, a, b, c, isb)
        mis = cr.mis()
        for t in np.flatnonzero(~cr.same & (mis <= k)):
            x = cr.x(t)
            if (x1 is None or x >= x1) and (x2 is None or x <= x2):
                out.append((x, m_e * x + c_e, int(mis[t])))
    return out


def _near(x):
    """x and the floats one step either side of x's float, as rationals."""
    f = float(x)
    return [x] + [Fraction(float(np.nextafter(f, d))) for d in (-np.inf, np.inf)]


@st.composite
def walk_cases(draw):
    """Grid lines and a few pieces on lines of the same grid (halved, as a
    midpoint curve's are), some with a denominator beyond 2**25.  A piece's
    ends are unbounded, on one of its crossings, one float step from one,
    or arbitrary."""
    below, above = draw(grid_lines())
    lines = below + above
    scale = Rat(10**30, 7) if any(abs(l.c) > 4 for l in lines) else Rat(1)
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        m = Rat(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 4])))
        c = Rat(draw(st.integers(-8, 8)), 2) * scale
        if draw(st.integers(0, 4)) == 0:
            c += Rat(1, 3 * 2**25)
        e = DLine(-1, m, c)
        xs = sorted({x for l in lines for x in [cross_x(e, l)] if x is not None})
        ends = [st.none(), st.fractions(-6, 6, max_denominator=8)]
        if xs:
            ends.append(st.sampled_from(xs).flatmap(
                lambda x: st.sampled_from(_near(x))))
        x1, x2 = draw(st.one_of(ends)), draw(st.one_of(ends))
        if x1 is not None and x2 is not None and x1 > x2:
            x1, x2 = x2, x1
        segments.append((e, x1, x2))
    return below, above, segments


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=walk_cases(), data=st.data(),
       block=st.sampled_from([1, 64, scans.SCAN_BLOCK]))
def test_walk_matches_whole_line_walk(case, data, block):
    """Parallel, identical and concurrent lines, piece ends on and one
    float step from crossings, unbounded ends, k from 0 to n, and blocks of
    one piece or several."""
    below, above, segments = case
    k = data.draw(st.integers(0, len(below) + len(above)))
    lines = LineSet(below, above)
    with mock.patch.object(scans, "SCAN_BLOCK", block):
        got = segment_valid_crossings(segments, lines, k)
    assert got == whole_line_valid_crossings(segments, lines, k)


def test_walk_recasts_int64_columns_for_large_pieces():
    """The lines d*y = p*x + j, with d = 2**25 - 39 for the below-lines and
    2**25 - 49 for the above-lines, have int64 columns, but the midpoint
    of a below-line and an above-line has A = 2*d1*d2, about 2**51.  Its
    products with the columns overflow int64, so the walk recasts the
    columns it is given to Python ints, and leaves the shared ones int64."""
    rng = random.Random(3)
    d1, d2 = 2**25 - 39, 2**25 - 49
    lines = [DLine(i, Rat(rng.randint(1 - d, d - 1), d),
                   Rat(rng.randint(-50, 50), d))
             for i, d in enumerate([d1] * 11 + [d2] * 13)]
    shared = LineSet(lines[:11], lines[11:])
    assert shared.cols[0].dtype == np.int64
    below, above = shared.below, shared.above
    segments = []
    for l, h in zip(below, above):
        m, c = (l.m + h.m) / 2, (l.c + h.c) / 2
        assert max(map(abs, homogeneous(m, c))) >= scans.INT64_BOUND
        segments.append((DLine(-1, m, c), min(l.m, h.m), max(l.m, h.m) + 5))
    segments.append((DLine(-1, Rat(0), Rat(0)), None, None))
    found = 0
    for k in range(len(lines) + 1):
        want = whole_line_valid_crossings(segments, shared, k)
        assert segment_valid_crossings(segments, shared, k) == want
        found += len(want)
    assert found
    assert shared.cols[0].dtype == np.int64


def test_walk_on_python_int_columns():
    """Coordinates times 10**12 put the columns on Python ints; the walk
    along the analysis's own curve matches the whole-line walk for every
    k."""
    rng = random.Random(12)
    pts = [LabeledPoint.of(rng.randint(-40, 40) * 10**12, rng.randint(-40, 40) * 10**12,
                           Color.RED if i % 3 else Color.BLUE, i) for i in range(14)]
    ana = _analysis_for(pts, len(pts))
    assert ana.lines.cols[0].dtype == object
    segments = [(p.line, p.x_lo, p.x_hi) for p in ana.curve.pieces]
    found = 0
    for k in range(len(pts) + 1):
        want = whole_line_valid_crossings(segments, ana.lines, k)
        assert segment_valid_crossings(segments, ana.lines, k) == want
        found += len(want)
    assert found


def test_walk_skips_pieces_over_the_count_bound():
    """The piece y = x + 100 on [0, 1] lies above six horizontal
    below-lines.  Two lines cross it in range: an above-line at x = 1/8,
    which leaves the count, and a below-line at x = 1/4, which enters it.
    Its count at x = 0 is 7 and only one crossing can lower it, so every
    on-point mis is at least 6: for k = 5 the piece sorts nothing, and for
    k = 6 it sorts its two crossings and both are valid."""
    below = [DLine(j, Rat(0), Rat(j)) for j in range(6)]
    below.append(DLine(6, Rat(-1), Rat(201, 2)))      # crosses at x = 1/4
    above = [DLine(7, Rat(-1), Rat(401, 4))]           # crosses at x = 1/8
    segments = [(DLine(-1, Rat(1), Rat(100)), Rat(0), Rat(1))]
    sorts = []
    real_order = scans.exact_order
    lines = LineSet(below, above)

    def counted_order(*keys):
        sorts.append(len(keys[0][0]))
        return real_order(*keys)

    with mock.patch.object(scans, "exact_order", counted_order):
        assert segment_valid_crossings(segments, lines, 5) == []
        assert sorts == []
        got = segment_valid_crossings(segments, lines, 6)
        assert sorts == [2]
    assert got == whole_line_valid_crossings(segments, lines, 6) \
        == [(Rat(1, 8), Rat(801, 8), 6), (Rat(1, 4), Rat(401, 4), 6)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines=scaled_lines(), side=st.sampled_from([-1, 1]))
def test_far_gap_slopes_are_the_extreme_slopes(lines, side):
    """The slopes that bound the far-gap limits, picked from the integer
    far order, are the extreme slopes of each role: on the left the
    greatest below-slope and the least above-slope, on the right the
    reverse."""
    below, above = lines
    if not below or not above:
        return
    pick = (max, min) if side < 0 else (min, max)
    assert FarGaps(LineSet(below, above), side)._slopes == (
        pick[0](l.m for l in below), pick[1](l.m for l in above))
