"""Partition-forest halfplane updates on a grid whose cell corners and leaf
points lie exactly on the update lines, against brute-force counts; and
the forest's order keys on coordinates whose floats tie while their exact
values differ, and on coordinates beyond the float range."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepkit.chains import DLine
from sepkit.parttree import PartitionForest, PTPoint, _above_halfplane, _filter_line, \
    _side
from sepkit.rat import Rat
from sepkit.scans import side_of_line

GRID = range(-4, 5)
# (slope, intercept) pairs through many grid points
LINES = [(Rat(0), Rat(0)), (Rat(1), Rat(0)), (Rat(-1), Rat(1)), (Rat(2), Rat(-1)),
         (Rat(1, 2), Rat(1)), (Rat(-1, 2), Rat(-1, 2)), (Rat(0), Rat(3)),
         (Rat(1), Rat(-4)), (Rat(-2), Rat(2))]


def _height(line: DLine, x, y) -> Fraction:
    return Fraction(y) - (Fraction(line.m) * Fraction(x) + Fraction(line.c))


def _corners(node) -> list[tuple]:
    """The four corners of the node's cell: x from its least and greatest
    order keys, y from the keys of its lowest and highest points."""
    return [(x, y) for x in (node.lo[1], node.hi[1])
            for y in (node.ylo[3], node.yhi[3])]


def _reference_cell(node, line: DLine, above: bool) -> int:
    """The cell against the open halfplane, from all four corners."""
    vals = [_height(line, x, y) for x, y in _corners(node)]
    if above:
        return 1 if min(vals) > 0 else -1 if max(vals) <= 0 else 0
    return 1 if max(vals) < 0 else -1 if min(vals) >= 0 else 0


def _nodes(u):
    yield u
    for c in u.children:
        yield from _nodes(c)


def _counts(forest) -> dict[int, int]:
    """True count of every alive point: its stored count plus the buffers
    on its path, read without flushing them."""
    out = {}

    def walk(u, acc):
        acc += u.buf
        for p in u.pts:
            if p.alive:
                out[id(p)] = p.count + acc
        for c in u.children:
            walk(c, acc)

    for t in forest.trees:
        walk(t.root, 0)
    return out


def test_halfplane_updates_with_points_on_the_line():
    pts = [PTPoint(Rat(x), Rat(y), (7 * x + 3 * y) % 5, payload=(x, y))
           for x in GRID for y in GRID]
    forest = PartitionForest(pts)
    shadow = {id(p): p.count for p in pts}
    alive = {id(p): p for p in pts}
    # cells outside the open halfplane with a corner on its line, which only
    # the non-strict tests (max <= 0 above, min >= 0 below) decide
    touching = {True: 0, False: 0}
    step = 0
    for m, c in LINES:
        for above in (True, False):
            for delta in (+1, -1, +1):
                step += 1
                line = DLine(0, m, c)
                for t in forest.trees:
                    for node in _nodes(t.root):
                        want = _reference_cell(node, line, above)
                        assert _above_halfplane(
                            node, _filter_line(line.abc), above) == want
                        corners = [_height(line, x, y)
                                   for x, y in _corners(node)]
                        if want == -1 and 0 in corners:
                            touching[above] += 1
                forest.halfplane_update(line, above, delta)
                for p in alive.values():
                    v = _height(line, p.x, p.y)
                    if (v > 0) if above else (v < 0):
                        shadow[id(p)] += delta
                forest.audit()
                assert _counts(forest) == shadow
                assert forest.min_count() == min(shadow.values())
                # more trees: insert a point on the last line, delete a grid point
                j = step % 9 - 4
                q = PTPoint(Rat(j, 2), m * Rat(j, 2) + c, step % 4)
                forest.insert(q)
                shadow[id(q)] = q.count
                alive[id(q)] = q
                gone = pts[(5 * step) % len(pts)]
                if gone.alive:
                    forest.delete(gone)
                    del shadow[id(gone)], alive[id(gone)]
                forest.audit()
                assert _counts(forest) == shadow
                for kq in (0, 2, 4):
                    got = forest.leftmost_valid(kq)
                    want = min(((p.x, p.y) for p in alive.values()
                                if shadow[id(p)] <= kq), default=None)
                    assert ((got.x, got.y) if got else None) == want
    assert touching[True] > 0 and touching[False] > 0


# x and y values in groups whose floats tie (or overflow to the same
# infinity) while the exact values differ
TIED_X = [Rat(1, 3), Rat(1, 3) + Rat(1, 2**80), Rat(1, 3) - Rat(1, 2**80),
          Rat(2**60), Rat(2**60 + 1), Rat(-(2**60 + 1)), Rat(0),
          Rat(10**400), Rat(10**400 + 1), Rat(-(10**400))]
TIED_Y = [Rat(2**60), Rat(2**60 + 1), Rat(2**60 - 1), Rat(1, 3),
          Rat(1, 3) + Rat(1, 2**80), Rat(0), Rat(10**400), Rat(-(10**400))]


def _tied_lines(rng, n):
    """Lines through two of the tied points: exactly through many points,
    and within about 2**-80 of many more."""
    out = []
    while len(out) < n:
        x1, x2 = rng.sample(TIED_X, 2)
        y1, y2 = rng.choice(TIED_Y), rng.choice(TIED_Y)
        m = (y2 - y1) / (x2 - x1)
        out.append(DLine(len(out), m, y1 - m * x1))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_order_keys_on_float_ties(seed):
    rng = random.Random(seed)
    lines = _tied_lines(rng, 12)
    forest = PartitionForest()
    coords, shadow = {}, {}     # by id: the exact (x, y), the true count
    alive = []

    def check():
        forest.audit()
        assert _counts(forest) == shadow
        assert len(forest) == len(alive)
        assert forest.min_count() == min(shadow.values(), default=None)
        for kq in range(-2, 4):
            got = forest.leftmost_valid(kq)
            want = min((coords[id(p)] for p in alive if shadow[id(p)] <= kq),
                       default=None)
            assert (coords[id(got)] if got else None) == want, kq

    for step in range(60):
        op = rng.random()
        if op < 0.35 or not alive:
            batch = []
            for _ in range(rng.randint(1, 6)):
                x, y = rng.choice(TIED_X), rng.choice(TIED_Y)
                if rng.random() < 0.3:      # a point on one of the lines
                    y = rng.choice(lines).y_at(x)
                p = PTPoint(x, y, rng.randint(-1, 3))
                coords[id(p)], shadow[id(p)] = (x, y), p.count
                batch.append(p)
            forest.insert(*batch)
            alive.extend(batch)
        elif op < 0.6:
            p = alive.pop(rng.randrange(len(alive)))
            forest.delete(p)
            del shadow[id(p)]
        else:
            line, above = rng.choice(lines), rng.random() < 0.5
            delta = rng.choice([-1, 1])
            forest.halfplane_update(line, above, delta)
            for p in alive:
                x, y = coords[id(p)]
                v = _height(line, x, y)
                if (v > 0) if above else (v < 0):
                    shadow[id(p)] += delta
        check()


def test_len_after_insert_absorbs_dead_points():
    # the batch of 4 absorbs the tree of 4 and drops its dead point
    forest = PartitionForest([PTPoint(Rat(i), Rat(0), 0) for i in range(4)])
    forest.delete(forest.trees[0].alive_points()[0])
    forest.insert(*[PTPoint(Rat(10 + i), Rat(0), 0) for i in range(4)])
    assert len(forest) == sum(len(t.alive_points()) for t in forest.trees) == 7


@st.composite
def near_line_points(draw):
    """A line with non-dyadic coefficients of some magnitude, and a point
    on it, or off it by a relative 2**-40 to 2**-90 in y; some x underflow
    to 0.0 as floats."""
    mag = draw(st.sampled_from([1, 2**30, 2**60, 10**400]))
    m = Rat(draw(st.integers(-50, 50)), draw(st.sampled_from([3, 7, 21]))) * mag
    c = Rat(draw(st.integers(-50, 50)), draw(st.sampled_from([1, 3, 11]))) * mag
    x = Rat(draw(st.integers(-10**6, 10**6)),
            draw(st.sampled_from([1, 3, 7, 2**20 + 1, 2**1080])))
    line = DLine(0, m, c)
    y = line.y_at(x)
    off = draw(st.sampled_from([0, 40, 60, 80, 90]))
    if off:
        y += draw(st.sampled_from([-1, 1])) * (abs(y) + 1) / 2**off
    return line, x, y


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=near_line_points())
def test_filtered_side_matches_exact_side(case):
    line, x, y = case
    key = PTPoint(x, y, 0).key
    assert _side(_filter_line(line.abc), key, key) == side_of_line(line.abc, x, y)


def test_filtered_side_where_x_underflows():
    # x rounds to 0.0 and y does not: on floats the point looks above the
    # line y = 2**60 * x, but it is below it by x
    line = DLine(0, Rat(2**60), Rat(0))
    x = Rat(1, 2**1080)
    y = (2**60 - 1) * x
    key = PTPoint(x, y, 0).key
    assert key[0] == 0.0 < key[2]
    assert _side(_filter_line(line.abc), key, key) == -1
