"""The candidate table's halfplane updates, leftmost queries, deletions and
compactions against brute-force counts: on a grid whose points lie exactly
on the update lines, on coordinates whose floats tie while their exact
values differ, and on coordinates beyond the int64 and float ranges; and a
dropped table is freed without the cycle collector."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepkit.chains import DLine
from sepkit.lpviol import DynState
from sepkit.parttree import PartitionForest
from sepkit.rat import Rat
from tests.conftest import TIED_X, TIED_Y, columns_of, ptpoint, side_of_line

GRID = range(-4, 5)
# (slope, intercept) pairs through many grid points
LINES = [(Rat(0), Rat(0)), (Rat(1), Rat(0)), (Rat(-1), Rat(1)), (Rat(2), Rat(-1)),
         (Rat(1, 2), Rat(1)), (Rat(-1, 2), Rat(-1, 2)), (Rat(0), Rat(3)),
         (Rat(1), Rat(-4)), (Rat(-2), Rat(2))]


def _height(line: DLine, x, y) -> Fraction:
    return Fraction(y) - (Fraction(line.m) * Fraction(x) + Fraction(line.c))


def _counts(table) -> dict[int, int]:
    """The count of every alive point, by id."""
    return {id(p): p.count for p in table.alive_points()}


def test_halfplane_updates_with_points_on_the_line():
    pts = [ptpoint(Rat(x), Rat(y), (7 * x + 3 * y) % 5, payload=(x, y))
           for x in GRID for y in GRID]
    table = PartitionForest(pts, columns_of(pts))
    shadow = {id(p): p.count for p in pts}
    alive = {id(p): p for p in pts}
    on_line = 0     # points on an update line, which no update may move
    step = 0
    for m, c in LINES:
        for above in (True, False):
            for delta in (+1, -1, +1):
                step += 1
                line = DLine(0, m, c)
                table.halfplane_update(line, above, delta)
                for p in alive.values():
                    v = _height(line, p.x, p.y)
                    on_line += v == 0
                    if (v > 0) if above else (v < 0):
                        shadow[id(p)] += delta
                table.audit()
                assert _counts(table) == shadow
                # insert a point on the last line, delete a grid point
                j = step % 9 - 4
                q = ptpoint(Rat(j, 2), m * Rat(j, 2) + c, step % 4)
                table.insert([q], columns_of([q]))
                shadow[id(q)] = q.count
                alive[id(q)] = q
                gone = pts[(5 * step) % len(pts)]
                if gone.alive:
                    table.delete(gone)
                    del shadow[id(gone)], alive[id(gone)]
                table.audit()
                assert _counts(table) == shadow
                for kq in (0, 2, 4):
                    got = table.leftmost_valid(kq)
                    want = min(((p.x, p.y) for p in alive.values()
                                if shadow[id(p)] <= kq), default=None)
                    assert ((got.x, got.y) if got else None) == want
    assert on_line > 0


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
    table = PartitionForest([], columns_of([]))
    coords, shadow = {}, {}     # by id: the exact (x, y), the true count
    alive = []

    def check():
        table.audit()
        assert _counts(table) == shadow
        assert len(table) == len(alive)
        for kq in range(-2, 4):
            got = table.leftmost_valid(kq)
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
                p = ptpoint(x, y, rng.randint(-1, 3))
                coords[id(p)], shadow[id(p)] = (x, y), p.count
                batch.append(p)
            table.insert(batch, columns_of(batch))
            alive.extend(batch)
        elif op < 0.6:
            p = alive.pop(rng.randrange(len(alive)))
            table.delete(p)
            del shadow[id(p)]
        else:
            line, above = rng.choice(lines), rng.random() < 0.5
            delta = rng.choice([-1, 1])
            table.halfplane_update(line, above, delta)
            for p in alive:
                x, y = coords[id(p)]
                v = _height(line, x, y)
                if (v > 0) if above else (v < 0):
                    shadow[id(p)] += delta
        check()


# small values: the int64 path
SMALL = [Rat(v) for v in (-2, -1, 0, 1, 2)] + [Rat(1, 2), Rat(-1, 3)]


@st.composite
def table_runs(draw):
    """Lines through two points of the small or the tied values, and a run
    of inserts of such points (some on a line), deletes, compactions and
    halfplane updates."""
    small = draw(st.booleans())
    pool_x, pool_y = (SMALL, SMALL) if small else (TIED_X, TIED_Y)
    lines = []
    for i in range(draw(st.integers(1, 4))):
        x1, x2 = draw(st.lists(st.sampled_from(pool_x), min_size=2,
                               max_size=2, unique=True))
        y1, y2 = draw(st.sampled_from(pool_y)), draw(st.sampled_from(pool_y))
        m = (y2 - y1) / (x2 - x1)
        lines.append(DLine(i, m, y1 - m * x1))
    point = st.tuples(st.sampled_from(pool_x), st.sampled_from(pool_y),
                      st.none() | st.integers(0, len(lines) - 1),
                      st.integers(-1, 3))
    op = st.one_of(
        st.tuples(st.just("insert"), st.lists(point, min_size=1, max_size=5)),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("update"), st.integers(0, len(lines) - 1),
                  st.booleans(), st.sampled_from([-1, 1])),
    )
    return lines, draw(st.lists(op, max_size=30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=table_runs())
def test_table_matches_brute_force_recount(run):
    lines, ops = run
    table = PartitionForest([], columns_of([]))
    alive, shadow = [], {}      # the alive points, their counts by id
    for op in ops:
        if op[0] == "insert":
            batch = []
            for x, y, on, count in op[1]:
                p = ptpoint(x, y if on is None else lines[on].y_at(x), count)
                shadow[id(p)] = count
                batch.append(p)
            table.insert(batch, columns_of(batch))
            alive.extend(batch)
        elif op[0] == "delete" and alive:
            p = alive.pop(op[1] % len(alive))
            table.delete(p)
            del shadow[id(p)]
            with pytest.raises(KeyError):
                table.delete(p)
        elif op[0] == "rebuild":
            table.rebuild()
        elif op[0] == "update":
            _, i, above, delta = op
            table.halfplane_update(lines[i], above, delta)
            for p in alive:
                side = side_of_line(lines[i].abc, p.x, p.y)
                if side == (1 if above else -1):
                    shadow[id(p)] += delta
        table.audit()
        assert len(table) == len(alive)
        assert _counts(table) == shadow
        for kq in range(min(shadow.values(), default=0) - 1,
                        max(shadow.values(), default=0) + 2):
            got = table.leftmost_valid(kq)
            want = min(((p.x, p.y) for p in alive if shadow[id(p)] <= kq),
                       default=None)
            assert ((got.x, got.y) if got else None) == want, kq
            if got is not None:
                assert got.count == shadow[id(got)]


def test_len_after_deletes_and_compaction():
    first = [ptpoint(Rat(i), Rat(0), 0) for i in range(4)]
    table = PartitionForest(first, columns_of(first))
    pts = table.alive_points()
    table.delete(pts[0])
    more = [ptpoint(Rat(10 + i), Rat(0), 0) for i in range(4)]
    table.insert(more, columns_of(more))
    assert len(table) == len(table.alive_points()) == 7
    assert len(table.pts) == 8
    # the fourth dead row of eight compacts the table
    for p in pts[1:4]:
        table.delete(p)
    assert len(table) == len(table.pts) == 4 and table.deleted == 0
    table.audit()
    assert table.leftmost_valid(0).x == 10


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


def _table_side(line: DLine, x, y) -> int:
    """The side of (x, y) the table's halfplane updates see: +1 if an
    update above the line counts it, -1 if one below does, else 0."""
    p = ptpoint(x, y, 0)
    table = PartitionForest([p], columns_of([p]))
    table.halfplane_update(line, True, 1)
    table.halfplane_update(line, False, -1)
    return table.leftmost_valid(1).count


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=near_line_points())
def test_table_side_matches_exact_side(case):
    line, x, y = case
    assert _table_side(line, x, y) == side_of_line(line.abc, x, y)


def test_table_side_where_x_underflows():
    # x rounds to 0.0 and y does not: on floats the point looks above the
    # line y = 2**60 * x, but it is below it by x
    line = DLine(0, Rat(2**60), Rat(0))
    x = Rat(1, 2**1080)
    y = (2**60 - 1) * x
    assert float(x) == 0.0 < float(y)
    assert _table_side(line, x, y) == -1


def test_dropped_table_is_freed_by_refcount():
    from tests.test_lpviol import make_sequence

    cs, schedule, ops = make_sequence(random.Random(5), 12, 60)
    st_ = DynState(cs, schedule, 2)
    rebuilds = 0
    gc.disable()
    try:
        for op in ops:
            old = weakref.ref(st_.forest)
            if op[0] == "insert":
                st_.insert(*op[1:])
            else:
                st_.delete(op[1])
            if st_.forest is not old():
                rebuilds += 1
                assert old() is None
    finally:
        gc.enable()
    assert rebuilds > 0
