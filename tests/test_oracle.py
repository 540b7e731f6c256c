import random

import pytest
from hypothesis import given, settings, strategies as st

from sepkit.core import Color, LabeledPoint, LineR2, PointR2, split_colors
from sepkit.errors import CapExceeded
from sepkit.exactkmm import ExactSolver, duals, minmax_curve
from sepkit.lpviol import ConstraintSet, static_min_violations
from sepkit.oracle import (
    KmmCandidateTable,
    LpOracleTable,
    _far_gap_counts,
    _violations,
    oracle_1d,
    oracle_1d_multi,
    oracle_kmm,
    oracle_leftmost_valid,
    oracle_min_violations,
    oracle_minmis,
)
from sepkit.rat import Rat
from sepkit.sep1d import Point1D, Tree1D
from tests.conftest import DS1, random_instance


def test_oracle_1d_examples():
    pts = [Point1D(x, c, i) for x, c, i in DS1]
    rep = oracle_1d(pts, 1)
    assert rep.value == 2 and rep.witness["separator_x"] == 3
    rep = oracle_1d(pts, 4)
    assert rep.value == 1 and rep.witness["separator_x"] == 4
    one_color = [Point1D.of(i, Color.RED, i) for i in range(5)]
    assert oracle_1d(one_color, 5).value == 0
    assert oracle_1d([], 0).value == 0


def test_oracle_kmm_big_coordinates(ds3):
    # coordinates of 10^12 overflow the int64 bound of the candidate table,
    # so it evaluates on Python ints
    s = 10**12
    big = [LabeledPoint(PointR2(p.point.x * s, p.point.y * s), p.color, p.id)
           for p in ds3]
    for k in range(len(ds3) + 1):
        want, got = oracle_kmm(ds3, k), oracle_kmm(big, k)
        assert (got.value is None) == (want.value is None), k
        if want.value is not None:
            assert got.value == want.value * s * s, k


def test_oracle_1d_multi_empty_set():
    ks = [0, 1, 5]
    got = oracle_1d_multi([], ks)
    for k in ks:
        assert got[k] is not None, k
        value, separator_x, _ = got[k]
        assert value == 0 and separator_x is None
        assert value == oracle_1d([], k).value
        assert value == Tree1D().query(k).max_dist


def test_oracle_1d_multi_matches_oracle_1d():
    pts = [Point1D(x, c, i) for x, c, i in DS1]
    ks = range(len(pts) + 1)
    got = oracle_1d_multi(pts, ks)
    for k in ks:
        want = oracle_1d(pts, k)
        if want.value is None:
            assert got[k] is None, k
        else:
            assert got[k][:2] == (want.value, want.witness["separator_x"]), k


def test_oracle_kmm_examples(ds2, ds3):
    assert oracle_kmm(ds3, 1).value == 2
    assert oracle_kmm(ds3, 4).value == Rat(1, 2)
    assert oracle_kmm(ds2, 0).value == 0
    with pytest.raises(CapExceeded):
        oracle_kmm([LabeledPoint.of(i, i * i, Color.RED, i) for i in range(10)],
                   0, cap=5)


def test_oracle_minmis_examples(ds2, ds3):
    assert oracle_minmis(ds3).value == 1
    assert oracle_minmis(ds2).value == 0
    r = oracle_leftmost_valid([LineR2.of(0, 0)], [LineR2.of(0, 1)], 0)
    assert r.witness["status"] == "infeasible"


def test_kmm_monotonic_in_k(rng):
    for _ in range(15):
        pts = random_instance(rng, rng.randint(4, 14))
        table = KmmCandidateTable(pts)
        prev = None
        for k in range(0, len(pts) + 1):
            res = table.query(k)
            if res is None:
                assert prev is None
                continue
            if prev is not None:
                assert res[0] <= prev
            prev = res[0]


def test_kmm_at_n_matches_curve_minimum(rng):
    # independent code paths: the oracle at k=n equals the minimum over the
    # MinMax curve evaluated directly
    for _ in range(12):
        pts = random_instance(rng, rng.randint(4, 12))
        n = len(pts)
        want = oracle_kmm(pts, n).value
        got = ExactSolver(pts, n).solve(n).max_sq
        assert got == want


def test_minmis_equals_lpviol(rng):
    for _ in range(15):
        pts = random_instance(rng, rng.randint(4, 14))
        reds, blues = split_colors(pts)
        km_o = oracle_minmis(pts).value
        km1, _ = static_min_violations(ConstraintSet(duals(reds), duals(blues)))
        km2, _ = static_min_violations(ConstraintSet(duals(blues), duals(reds)))
        assert km_o == min(km1, km2)


def test_oracle_self_check_via_classify(rng):
    for _ in range(10):
        pts = random_instance(rng, rng.randint(4, 12))
        res = oracle_kmm(pts, 2)
        if res.value is None:
            continue
        from sepkit.core import classify_mis

        rep = classify_mis(res.witness["separator"], pts)
        assert rep.max_sq == res.value and rep.mis <= 2


class FractionLpOracleTable:
    """The reference for `LpOracleTable`: every distinct vertex as Fraction
    (x, y), its violations counted with `LineR2.y_at`."""

    def __init__(self, red, blue):
        self.gap_min = min(_far_gap_counts(red, blue, -1))
        lines = list(red) + list(blue)
        verts = set()
        for i, a in enumerate(lines):
            for b in lines[i + 1:]:
                if a.m != b.m:
                    x = (b.c - a.c) / (a.m - b.m)
                    verts.add(PointR2(x, a.y_at(x)))
        self.rows = sorted((v.x, v.y, _violations(v, red, blue)) for v in verts)


@st.composite
def lp_lines(draw):
    """Red and blue lines on a small grid of slopes and intercepts: many
    parallel, concurrent and repeated lines; then scaled by 1, by a
    non-dyadic rational, or to near 2**62 and beyond."""
    scale = draw(st.sampled_from(["int", "thirds", "huge"]))
    lines = []
    for _ in range(draw(st.integers(2, 12))):
        m = Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        c = Rat(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 3])))
        if scale == "thirds":
            m, c = m / 3 + Rat(1, 7), c / 21
        elif scale == "huge":
            m, c = m * (2**62 + draw(st.integers(-2, 2))), c * 10**20 + 1
        lines.append(LineR2(m, c))
    nr = draw(st.integers(1, len(lines) - 1))
    return lines[:nr], lines[nr:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=lp_lines())
def test_lp_oracle_table_matches_fraction_reference(lines):
    red, blue = lines
    got, want = LpOracleTable(red, blue), FractionLpOracleTable(red, blue)
    assert got.gap_min == want.gap_min
    assert got.rows == want.rows
    for k in range(len(red) + len(blue) + 1):
        assert got.leftmost_valid(k) == (
            ("unbounded", None) if want.gap_min <= k else
            next((("feasible", row) for row in want.rows if row[2] <= k),
                 ("infeasible", None)))
