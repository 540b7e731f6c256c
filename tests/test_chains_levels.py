import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sepkit import scans
from sepkit.chains import (
    Chain,
    ChainKind,
    ChainPiece,
    Direction,
    DLine,
    chain_decomposition,
    chain_pair_intersections,
    cross_x,
    envelope,
)
from sepkit.errors import EmptyInput
from sepkit.levels import build_leq_k, overlay_and_label
from sepkit.rat import Rat
from sepkit.scans import LineSet
from tests.conftest import all_cells, locate, random_lines, \
    reference_chain_decomposition, xy

L = lambda i, m, c: DLine(i, Rat(m), Rat(c))


# -- envelopes ---------------------------------------------------------------


def test_envelope_examples():
    env = envelope([L(0, 0, 0), L(1, 2, -2)], Direction.LOWER)
    assert [(p.line.m, p.x_lo, p.x_hi) for p in env.pieces] == \
        [(2, None, 1), (0, 1, None)]
    env = envelope([L(0, 0, -2), L(1, 2, 0)], Direction.UPPER)
    assert [(p.line.m, p.x_lo, p.x_hi) for p in env.pieces] == \
        [(0, None, -1), (2, -1, None)]
    env = envelope([L(5, 1, 7)], Direction.LOWER)
    assert len(env.pieces) == 1 and env.pieces[0].line.id == 5
    with pytest.raises(EmptyInput):
        envelope([], Direction.LOWER)


def test_envelope_is_pointwise_min(rng):
    for _ in range(30):
        lines = random_lines(rng, rng.randint(1, 20))
        env = envelope(lines, Direction.LOWER)
        env.check_shape()
        for _ in range(20):
            x = Rat(rng.randint(-100, 100), rng.randint(1, 7))
            assert env.value_at(x) == min(l.y_at(x) for l in lines)
        up = envelope(lines, Direction.UPPER)
        up.check_shape()
        x = Rat(rng.randint(-50, 50))
        assert up.value_at(x) == max(l.y_at(x) for l in lines)


def reference_envelope(lines, direction):
    """The envelope on Fraction lines: the lowest line of each slope, added
    by decreasing slope to a stack of pieces; the upper envelope through
    negated lines."""
    if direction is Direction.UPPER:
        low = reference_envelope([l.neg() for l in lines], Direction.LOWER)
        return low.negated(ChainKind.CONVEX)
    by_slope = {}
    for l in lines:
        cur = by_slope.get(l.m)
        if cur is None or l.c < cur.c:
            by_slope[l.m] = l
    stack, xs = [], []
    for l in sorted(by_slope.values(), key=lambda l: -l.m):
        while stack:
            x = cross_x(stack[-1], l)
            if xs and x <= xs[-1]:
                stack.pop()
                xs.pop()
            else:
                stack.append(l)
                xs.append(x)
                break
        if not stack:
            stack.append(l)
    bounds = [None] + xs + [None]
    return Chain(ChainKind.CONCAVE, [ChainPiece(l, bounds[i], bounds[i + 1])
                                     for i, l in enumerate(stack)])


@st.composite
def envelope_lines(draw):
    """Lines on a small grid, so that equal slopes, identical lines (under
    different ids) and concurrent lines are common; scaled by a huge
    non-dyadic amount, the columns hold Python ints."""
    scale = draw(st.sampled_from([Rat(1), Rat(1, 3), Rat(10**30, 7)]))
    n = draw(st.integers(1, 25))
    return [DLine(i, Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2]))),
                  Rat(draw(st.integers(-3, 3))) * scale) for i in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=envelope_lines(), direction=st.sampled_from(list(Direction)))
def test_envelope_matches_fraction_reference(lines, direction):
    want = reference_envelope(lines, direction)
    # a LineSet gives the lower envelope of its below-lines and the upper
    # envelope of its above-lines
    upper = direction is Direction.UPPER
    for arg in (lines, LineSet([], lines) if upper else LineSet(lines)):
        got = envelope(arg, direction)
        assert got.kind is want.kind
        assert [(p.line, p.line.id, p.x_lo, p.x_hi) for p in got.pieces] == \
            [(p.line, p.line.id, p.x_lo, p.x_hi) for p in want.pieces]


def test_envelope_on_python_int_columns():
    big = Rat(10**30, 7)
    lines = [DLine(0, Rat(1), big), DLine(1, Rat(-1), big), DLine(2, Rat(0), big + 1),
             DLine(3, Rat(1), big), DLine(4, Rat(0), big - Rat(1, 3))]
    assert LineSet(lines).cols[0].dtype == object
    for direction in Direction:
        got = envelope(lines, direction)
        want = reference_envelope(lines, direction)
        assert [(p.line.id, p.x_lo, p.x_hi) for p in got.pieces] == \
            [(p.line.id, p.x_lo, p.x_hi) for p in want.pieces]
    assert [p.line.id for p in envelope(lines, Direction.LOWER).pieces] == [0, 4, 1]


# -- chain decompositions ----------------------------------------------------


def test_chain_decomposition_examples():
    cs = chain_decomposition([L(0, 0, 0), L(1, 2, -2)], 0, Direction.LOWER)
    assert len(cs.chains) == 1
    assert [p.line.m for p in cs.chains[0].pieces] == [2, 0]

    cs = chain_decomposition([L(0, 0, 0), L(1, 2, -2)], 1, Direction.LOWER)
    assert len(cs.chains) == 2
    covered = {(p.line.id, p.x_lo, p.x_hi) for c in cs.chains for p in c.pieces}
    assert covered == {(0, None, None), (1, None, None)}

    cs = chain_decomposition([L(i, 1, i) for i in range(5)], 2, Direction.LOWER)
    assert len(cs.chains) == 3
    assert all(len(c.pieces) == 1 for c in cs.chains)


def _level_of(lines, x, y, direction):
    if direction is Direction.LOWER:
        return sum(1 for l in lines if l.y_at(x) < y)
    return sum(1 for l in lines if l.y_at(x) > y)


def test_chain_cover_and_shape(rng):
    for _ in range(25):
        n = rng.randint(2, 18)
        k = rng.randint(0, 6)
        lines = random_lines(rng, n)
        for direction in Direction:
            cs = chain_decomposition(lines, k, direction)
            assert len(cs.chains) == min(k + 1, n)
            for c in cs.chains:
                c.check_shape()
                assert c.kind is (ChainKind.CONCAVE if direction is Direction.LOWER
                                  else ChainKind.CONVEX)
            # every piece lies inside the <=k-level; every level edge covered
            for c in cs.chains:
                for p in c.pieces:
                    lo = p.x_lo if p.x_lo is not None else (
                        p.x_hi - 1 if p.x_hi is not None else Rat(0))
                    hi = p.x_hi if p.x_hi is not None else lo + 2
                    xm = (lo + hi) / 2
                    y = p.line.y_at(xm)
                    assert _level_of(lines, xm, y, direction) <= k
            sub = build_leq_k(lines, k, direction)
            for e in sub.edges:
                lo = e.x_lo if e.x_lo is not None else (
                    e.x_hi - 1 if e.x_hi is not None else Rat(0))
                hi = e.x_hi if e.x_hi is not None else lo + 2
                xm = (lo + hi) / 2
                assert any(
                    c.value_at(xm) == e.line.y_at(xm) and
                    c.piece_at(xm).line.id == e.line.id
                    for c in cs.chains
                ), "level edge not covered by any chain"


@st.composite
def grid_lines(draw):
    """Up to 30 lines on a small grid of slopes and integer intercepts, as
    in test_scans.py: parallel and identical lines, pencils of concurrent
    lines, and vertices at dyadic x that a float wall can hit exactly.  The
    intercepts may be scaled by a huge non-dyadic amount (Python-int
    columns) or by 1/3."""
    scale = draw(st.sampled_from([Rat(1), Rat(10**30, 7), Rat(1, 3)]))
    n = draw(st.integers(1, 30))
    return [DLine(i, Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2]))),
                  draw(st.integers(-4, 4)) * scale) for i in range(n)]


def _midpoint(lo, hi):
    lo = lo if lo is not None else (hi - 1 if hi is not None else Rat(0))
    return (lo + (hi if hi is not None else lo + 2)) / 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=grid_lines(), data=st.data(),
       direction=st.sampled_from(list(Direction)),
       slab=st.sampled_from([1, 2, scans.SLAB_LINES]))
def test_chain_cover_matches_reference_on_grids(lines, data, direction, slab):
    """The cover read from the vertex scan's blocks equals the all-pairs
    sweep, pieces and breakpoints included; one slab per line or two puts
    the band filter's walls on vertices.  With identical lines the two
    sweeps may ride different copies, so the cover is checked by shape and
    by covering every edge of the <=k-level with a piece on the same line."""
    n = len(lines)
    k = data.draw(st.integers(0, n + 1))
    with mock.patch.object(scans, "SLAB_LINES", slab):
        got = chain_decomposition(lines, k, direction)
    if len({l.abc for l in lines}) == n:
        want = reference_chain_decomposition(lines, k, direction)
        assert [[(p.line, p.line.id, p.x_lo, p.x_hi) for p in c.pieces]
                for c in got] == \
            [[(p.line, p.line.id, p.x_lo, p.x_hi) for p in c.pieces]
             for c in want]
        return
    assert len(got) == min(k + 1, n)
    kind = ChainKind.CONCAVE if direction is Direction.LOWER else ChainKind.CONVEX
    for c in got:
        assert c.kind is kind
        c.check_shape()
    for e in build_leq_k(lines, k, direction).edges:
        xm = _midpoint(e.x_lo, e.x_hi)
        assert any(c.piece_at(xm).line.abc == e.line.abc for c in got)


# -- level subdivisions --------------------------------------------------------


def test_build_leq_k_examples():
    sub = build_leq_k([L(0, 0, 0), L(1, 0, 1), L(2, 0, 2)], 0, Direction.LOWER)
    assert len(sub.edges) == 1 and sub.edges[0].line.id == 0

    sub = build_leq_k([L(0, 0, 0), L(1, 2, -2)], 1, Direction.LOWER)
    assert len(sub.vertices) == 1
    v = sub.vertices[0]
    assert (v.x, v.y, v.level) == (1, 0, 0)

    # degenerate concurrent triple: 2 per-pair vertex records with level <= 0
    sub = build_leq_k([L(0, 1, 0), L(1, -1, 0), L(2, 0, 0)], 0, Direction.LOWER)
    assert len(sub.vertices) == 2
    assert all((v.x, v.y, v.level) == (0, 0, 0) for v in sub.vertices)


def test_level_soundness(rng):
    for _ in range(25):
        lines = random_lines(rng, rng.randint(2, 16))
        k = rng.randint(0, 5)
        for direction in Direction:
            sub = build_leq_k(lines, k, direction)
            for v in sub.vertices:
                others = [l for l in lines if l.id not in v.line_ids]
                assert _level_of(others, v.x, v.y, direction) == v.level <= k
            for e in sub.edges:
                lo = e.x_lo if e.x_lo is not None else (
                    e.x_hi - 1 if e.x_hi is not None else Rat(0))
                hi = e.x_hi if e.x_hi is not None else lo + 2
                xm = (lo + hi) / 2
                others = [l for l in lines if l.id != e.line.id]
                assert _level_of(others, xm, e.line.y_at(xm), direction) \
                    == e.level <= k


# -- overlay -------------------------------------------------------------------


def test_overlay_examples(ds3):
    R = [L(0, 0, 0), L(1, 2, -2)]
    B = [L(2, 0, -2), L(3, 2, 0)]
    ov = overlay_and_label(R, B, 1)
    c = locate(ov, Rat(1), Rat(-1, 2))
    assert c.mis == 1 and c.valid
    c = locate(ov, Rat(1), Rat(1))
    assert c.mis == 3 and not c.valid

    ov = overlay_and_label([L(0, 0, 0)], [L(1, 0, 1)], 0)
    assert all(not c.valid for c in all_cells(ov))

    ov = overlay_and_label([L(0, 0, 1)], [L(1, 0, 0)], 0)
    assert ov.valid_region_count == 1
    valid = [c for c in all_cells(ov) if c.valid]
    assert valid and all(c.touches_box for c in valid)


def test_overlay_invariants(rng):
    for _ in range(12):
        nr, nb = rng.randint(1, 8), rng.randint(1, 8)
        red = random_lines(rng, nr)
        blue = random_lines(rng, nb, first_id=100)
        k = rng.randint(0, 4)
        ov = overlay_and_label(red, blue, k)
        # adjacent-cell delta across every in-slab (line) edge, in-region only
        for lo, hi, edge in ov.adjacent_pairs():
            if lo.in_region and hi.in_region:
                assert abs(lo.mis - hi.mis) == 1
        # spot-verify sampled cells by direct counting
        for col in ov.cells:
            for c in col[:: max(1, len(col) // 3)]:
                xm = (c.x_lo + c.x_hi) / 2
                lo_v = c.lo_edge.line.y_at(xm) if c.lo_edge else ov.box[2]
                hi_v = c.hi_edge.line.y_at(xm) if c.hi_edge else ov.box[3]
                ys = (lo_v + hi_v) / 2
                rb = sum(1 for l in red if l.y_at(xm) < ys)
                ba = sum(1 for l in blue if l.y_at(xm) > ys)
                assert c.mis == rb + ba
                assert c.valid == (rb + ba <= k)


def test_bichromatic_intersection_completeness(rng):
    # chain intersections contain all red-blue arrangement vertices inside
    # the level intersection region
    for _ in range(10):
        red = random_lines(rng, rng.randint(1, 7))
        blue = random_lines(rng, rng.randint(1, 7), first_id=50)
        k = rng.randint(0, 3)
        rcs = chain_decomposition(red, k, Direction.LOWER)
        bcs = chain_decomposition(blue, k, Direction.UPPER)
        found = set()
        for cr in rcs:
            for cb in bcs:
                found |= {xy(t) for t in chain_pair_intersections(cr, cb)}
        for r in red:
            for b in blue:
                if r.m == b.m:
                    continue
                x = (b.c - r.c) / (r.m - b.m)
                y = r.y_at(x)
                if _level_of(red, x, y, Direction.LOWER) <= k and \
                        _level_of(blue, x, y, Direction.UPPER) <= k:
                    assert (x, y) in found
