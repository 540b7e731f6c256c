import random

import pytest
from hypothesis import given, settings, strategies as st

from sepkit import scans
from sepkit.chains import Direction, DLine, chain_decomposition
from sepkit.core import Color, LineR2, PointR2
from sepkit.errors import ScheduleViolation, UnknownId
from sepkit.lpviol import (
    ConstraintSet,
    DynState,
    LPStatus,
    PlyStructure,
    static_leftmost_valid,
    static_min_violations,
    violations_at,
)
from sepkit.oracle import oracle_leftmost_valid, oracle_min_violations
from sepkit.parttree import PartitionForest
from sepkit.rat import Rat
from tests.conftest import columns_of, ptpoint, random_lines

L = lambda i, m, c: DLine(i, Rat(m), Rat(c))


# -- static ------------------------------------------------------------------


def test_static_examples():
    cs = ConstraintSet([L(0, 1, 0)], [L(1, -1, 0)])
    r = static_leftmost_valid(cs, 0)
    assert r.status is LPStatus.FEASIBLE
    assert (r.point.x, r.point.y, r.violations) == (0, 0, 0)

    cs = ConstraintSet([L(0, 0, 0)], [L(1, 0, 1)])
    assert static_leftmost_valid(cs, 0).status is LPStatus.INFEASIBLE
    assert static_leftmost_valid(cs, 1).status is LPStatus.UNBOUNDED

    ds3 = ConstraintSet([L(0, 0, 0), L(1, 2, -2)], [L(2, 0, -2), L(3, 2, 0)])
    assert static_leftmost_valid(ds3, 1).status is LPStatus.UNBOUNDED
    km, res = static_min_violations(ds3)
    assert km == 1

    km, _ = static_min_violations(ConstraintSet([L(0, 0, 1)], [L(1, 0, 0)]))
    assert km == 0

    r = static_leftmost_valid(ConstraintSet([], [L(0, 0, 0)]), 0)
    assert r.status is LPStatus.UNBOUNDED and r.reason == "empty-side"


def test_static_oracle_equivalence(rng):
    for _ in range(60):
        red = random_lines(rng, rng.randint(1, 10))
        blue = random_lines(rng, rng.randint(1, 10), first_id=100)
        cs = ConstraintSet(red, blue)
        red_l = [LineR2(l.m, l.c) for l in red]
        blue_l = [LineR2(l.m, l.c) for l in blue]
        for k in range(0, 8):
            got = static_leftmost_valid(cs, k)
            want = oracle_leftmost_valid(red_l, blue_l, k)
            assert got.status.value == want.witness["status"]
            if got.status is LPStatus.FEASIBLE:
                wp = want.witness["point"]
                assert (got.point.x, got.point.y) == (wp.x, wp.y)
                assert got.violations == want.witness["violations"]
        km, _ = static_min_violations(cs)
        assert km == oracle_min_violations(red_l, blue_l).value


# -- ply structures ------------------------------------------------------------


def test_ply_equals_direct_count(rng):
    for _ in range(20):
        red = random_lines(rng, rng.randint(1, 9))
        blue = random_lines(rng, rng.randint(1, 9), first_id=100)
        k = rng.randint(0, 4)
        rcs = chain_decomposition(red, k, Direction.LOWER).chains
        bcs = chain_decomposition(blue, k, Direction.UPPER).chains
        for cr in rcs:
            ply = PlyStructure(cr, bcs)
            for _ in range(12):
                x = Rat(rng.randint(-80, 80), rng.randint(1, 5))
                y = cr.value_at(x)
                direct = sum(1 for cb in bcs if cb.value_at(x) > y)
                assert ply.ply(x) == direct


# -- candidate table -------------------------------------------------------------


def _random_forest(rng, n):
    pts = []
    for i in range(n):
        pts.append(ptpoint(Rat(rng.randint(-50, 50), rng.randint(1, 3)),
                           Rat(rng.randint(-50, 50), rng.randint(1, 3)),
                           rng.randint(0, 5), payload=i))
    return PartitionForest(pts, columns_of(pts)), pts


def test_halfplane_updates_match_recount(rng):
    forest, pts = _random_forest(rng, 50)
    shadow = {id(p): p.count for p in pts}
    for _ in range(20):
        line = L(0, Rat(rng.randint(-5, 5), rng.randint(1, 3)),
                 rng.randint(-40, 40))
        color = Color.RED if rng.random() < 0.5 else Color.BLUE
        delta = rng.choice((+1, -1))
        forest.halfplane_update(line, above=color is Color.RED, delta=delta)
        for p in pts:
            v = p.y - line.y_at(p.x)
            hit = v > 0 if color is Color.RED else v < 0
            if hit:
                shadow[id(p)] += delta
        forest.audit()
    alive = forest.alive_points()
    assert {id(p): p.count for p in alive} == shadow


def test_single_point_increment():
    p = ptpoint(Rat(0), Rat(0), 0)
    forest = PartitionForest([p], columns_of([p]))
    forest.halfplane_update(L(0, 0, -1), above=True, delta=+1)   # point above line
    assert forest.alive_points()[0].count == 1


def test_sentinel_deletion():
    p = ptpoint(Rat(0), Rat(0), 0)
    forest = PartitionForest([p], columns_of([p]))
    assert forest.leftmost_valid(5) is not None
    forest.delete(p)
    assert forest.leftmost_valid(5) is None


def test_leftmost_query_with_inserts(rng):
    forest, pts = _random_forest(rng, 30)
    for i in range(20):
        p = ptpoint(Rat(rng.randint(-50, 50), 7), Rat(rng.randint(-50, 50)),
                    rng.randint(0, 5), payload=100 + i)
        forest.insert([p], columns_of([p]))
        forest.audit()
        for kq in (0, 2, 5):
            got = forest.leftmost_valid(kq)
            alive = forest.alive_points()
            want = min(((q.x, q.y) for q in alive if q.count <= kq),
                       default=None)
            if want is None:
                assert got is None
            else:
                assert (got.x, got.y) == want


# -- dynamic -------------------------------------------------------------------


def make_sequence(rng, n0, T, late_share=0.0, late_max=8, hubs=(),
                  copy_share=0.0):
    """Semi-online stream; a late_share of the promised deletions arrives
    1..late_max updates late, and never if that is after T.  With hubs,
    every line passes through one of those integer points.  A copy_share
    of the lines are identical to an earlier line, under a new id."""
    used_slopes = set()
    next_id = [0]
    made = []

    def new_line():
        if copy_share and made and rng.random() < copy_share:
            twin = rng.choice(made)
            next_id[0] += 1
            return DLine(next_id[0] - 1, twin.m, twin.c)
        while True:
            m = rng.randint(-4000, 4000)
            if m not in used_slopes:
                used_slopes.add(m)
                i = next_id[0]
                next_id[0] += 1
                if hubs:
                    px, py = rng.choice(hubs)
                    made.append(DLine(i, Rat(m), Rat(py - m * px)))
                else:
                    made.append(DLine(i, Rat(m), Rat(rng.randint(-60, 60))))
                return made[-1]

    pending, schedule = {}, {}

    def assign_delete(id_, t_now):
        if rng.random() < 0.3:
            return None
        for _ in range(6):
            t = t_now + rng.randint(1, max(2, T // 2))
            arrive = t
            if late_share and rng.random() < late_share:
                arrive += rng.randint(1, late_max)
            if t <= T and arrive not in pending:
                pending[arrive] = id_
                return t
        return None

    red, blue = [], []
    for _ in range(n0):
        l = new_line()
        color = Color.RED if rng.random() < 0.5 else Color.BLUE
        (red if color is Color.RED else blue).append(l)
        schedule[l.id] = assign_delete(l.id, 0)
    ops = []
    for t in range(1, T + 1):
        if t in pending:
            ops.append(("delete", pending[t]))
        else:
            l = new_line()
            color = Color.RED if rng.random() < 0.5 else Color.BLUE
            ops.append(("insert", l, color, assign_delete(l.id, t)))
    return ConstraintSet(red, blue), schedule, ops


def _assert_matches_static(st, live, k, where):
    red = [l for l, c in live.values() if c is Color.RED]
    blue = [l for l, c in live.values() if c is Color.BLUE]
    want = static_leftmost_valid(ConstraintSet(red, blue), k)
    got = st.query(k)
    assert got.status == want.status, where
    if got.status is LPStatus.FEASIBLE:
        assert (got.point.x, got.point.y) == (want.point.x, want.point.y)
        assert got.violations == want.violations


def _apply(st, op):
    """op: ("insert", DLine, Color, delete_at) or ("delete", id)."""
    if op[0] == "insert":
        st.insert(*op[1:])
    else:
        st.delete(op[1])


def _replay(st, cs, ops, k, audit_every):
    """Apply ops to st, comparing with a static re-solve after each one."""
    live = {l.id: (l, Color.RED) for l in cs.red}
    live.update({l.id: (l, Color.BLUE) for l in cs.blue})
    for step, op in enumerate(ops):
        _apply(st, op)
        if op[0] == "insert":
            live[op[1].id] = (op[1], op[2])
        else:
            del live[op[1]]
        _assert_matches_static(st, live, k, (step, op))
        if step % audit_every == 0:
            st.audit()


def _run_dynamic(rng, T, k, audit_every=40):
    cs, schedule, ops = make_sequence(rng, rng.randint(4, 16), T)
    st = DynState(cs, schedule, k)
    _replay(st, cs, ops, k, audit_every)


def test_dynamic_equals_static(rng):
    for _ in range(3):
        _run_dynamic(rng, 90, rng.randint(0, 5))


def test_dynamic_overdue_lines_keep_on_time_deletions():
    # cadence 4: at the expensive update u=4 the two overdue lines (due at 2
    # and 3, never deleted) and the four lines due at 5..8 are all deletable
    # before the next flush at u=8, so all six belong in the leftover list
    red = [L(0, 3, 1), L(1, -2, 4), L(2, 5, -3), L(3, -7, 2)]
    blue = [L(4, 1, 9), L(5, -4, -6), L(6, 6, 8), L(7, -1, -5)]
    cs = ConstraintSet(red, blue)
    schedule = {0: 2, 4: 3, 1: 5, 5: 6, 2: 7, 6: 8}
    ops = [
        ("insert", L(8, 2, 3), Color.RED, None),
        ("insert", L(9, -3, -2), Color.BLUE, None),
        ("insert", L(10, 7, -1), Color.RED, None),
        ("insert", L(11, -6, 4), Color.BLUE, None),
        ("delete", 1), ("delete", 5), ("delete", 2), ("delete", 6),
    ]
    st = DynState(cs, schedule, 1)
    assert st.cadence == 4
    st.audit()
    _replay(st, cs, ops, 1, audit_every=1)
    assert 0 in st.leftover[Color.RED] and 4 in st.leftover[Color.BLUE]


def test_dynamic_late_deletions(rng):
    # the second stream is degenerate: every line passes through one of two
    # integer points, so many candidates lie on three or more lines, and
    # deleting one of them can leave a red-blue pair through the candidate
    late = 0
    for hubs in ((), [(0, 0), (1, 1)]):
        for k in (0, 1, 2):
            cs, schedule, ops = make_sequence(rng, rng.randint(6, 12), 80,
                                              late_share=0.5, late_max=16,
                                              hubs=hubs)
            promised = dict(schedule)
            for u, op in enumerate(ops, start=1):
                if op[0] == "insert":
                    promised[op[1].id] = op[3]
                elif u > promised[op[1]]:
                    late += 1
            st = DynState(cs, schedule, k)
            _replay(st, cs, ops, k, audit_every=1)
    assert late > 0


def test_candidate_rows_are_distinct_points(rng):
    """A new line through an alive candidate replaces its row: no two alive
    rows hold the same point after any update, and the answers equal the
    static re-solve's."""
    for k in (0, 2, 4):
        cs, schedule, ops = make_sequence(rng, rng.randint(6, 12), 60,
                                          hubs=[(0, 0), (1, 1)])
        st = DynState(cs, schedule, k)
        live = {l.id: (l, Color.RED) for l in cs.red}
        live.update({l.id: (l, Color.BLUE) for l in cs.blue})
        for step, op in enumerate(ops):
            _apply(st, op)
            if op[0] == "insert":
                live[op[1].id] = (op[1], op[2])
            else:
                del live[op[1]]
            points = [p.xyw for p in st.forest.alive_points()]
            assert len(points) == len(set(points)), (k, step, op)
            _assert_matches_static(st, live, k, (k, step, op))
        st.audit()


def test_duplicate_constraint_lines(rng):
    """Identical lines under different ids, of one colour or of both: the
    static answers equal the oracle's, and the dynamic answers equal the
    static re-solve's, with audits after every update."""
    for hubs in ((), [(0, 0), (1, 1)]):
        for k in (0, 1, 3):
            cs, schedule, ops = make_sequence(rng, rng.randint(6, 12), 50,
                                              late_share=0.3, hubs=hubs,
                                              copy_share=0.3)
            red_l = [LineR2(l.m, l.c) for l in cs.red]
            blue_l = [LineR2(l.m, l.c) for l in cs.blue]
            assert any(len({l.abc for l in side}) < len(side)
                       for side in (cs.red, cs.blue, cs.red + cs.blue))
            got = static_leftmost_valid(cs, k)
            want = oracle_leftmost_valid(red_l, blue_l, k).witness
            assert got.status.value == want["status"]
            if got.status is LPStatus.FEASIBLE:
                assert (got.point.x, got.point.y, got.violations) == \
                    (want["point"].x, want["point"].y, want["violations"])
            assert static_min_violations(cs)[0] == \
                oracle_min_violations(red_l, blue_l).value
            _replay(DynState(cs, schedule, k), cs, ops, k, audit_every=1)


@pytest.mark.parametrize("gone", [1, 2])
def test_dynamic_keeps_candidate_on_three_lines(gone):
    # red y=0 and blue y=-x, y=-2x meet in (0, 0): after either blue line
    # goes, (0, 0) is still the red-blue vertex of the other one
    red, blue = [DLine(0, 0, 0)], [DLine(1, -1, 0), DLine(2, -2, 0)]
    st = DynState(ConstraintSet(red, blue), {gone: 1}, 0)
    st.audit()
    st.delete(gone)
    st.audit()
    got = st.query(0)
    want = static_leftmost_valid(
        ConstraintSet(red, [b for b in blue if b.id != gone]), 0)
    assert got.status is want.status is LPStatus.FEASIBLE
    assert (got.point.x, got.point.y, got.violations) == (0, 0, 0)
    assert (want.point.x, want.point.y, want.violations) == (0, 0, 0)


def test_new_line_through_candidate_keeps_every_line_of_it():
    # red R1 and blue B0, B1 meet in (0, 0); B1 sits in a layer whose k+1
    # highest lines all pass over (0, 0), so once B0 goes no blue chain
    # covers it, and red R2 inserted through it makes no row there.  Blue
    # B2 then finds it through R1: its row must count R1, R2, B1 and B2, so
    # that it outlives R1 while R2 and B2 are live.
    red = [DLine(0, 1, 0)]
    blue = [DLine(1, -1, 0), DLine(2, -2, 0), DLine(3, 0, 5),
            DLine(4, 3, 6), DLine(5, -3, 7)]
    st = DynState(ConstraintSet(red, blue), {0: 4, 1: 1}, 2)
    assert 0 in st.leftover[Color.RED] and 2 not in st.leftover[Color.BLUE]
    live = {l.id: (l, Color.RED) for l in red}
    live.update({l.id: (l, Color.BLUE) for l in blue})
    ops = [("delete", 1), ("insert", DLine(6, 2, 0), Color.RED, None),
           ("insert", DLine(7, -5, 0), Color.BLUE, None), ("delete", 0)]
    for op in ops:
        _apply(st, op)
        if op[0] == "insert":
            live[op[1].id] = (op[1], op[2])
        else:
            del live[op[1]]
        st.audit()
        for kq in range(3):
            _assert_matches_static(st, live, kq, (op, kq))
    assert st.stats["expensive_updates"] == 0
    (origin,) = [p for p in st.forest.alive_points() if p.xyw == (0, 0, 1)]
    assert origin.payload == [1, 2]


def test_audit_catches_a_wrong_table(rng):
    # each corruption of the candidate table, alone, fails the audit
    cs, schedule, ops = make_sequence(rng, 12, 30)
    st = DynState(cs, schedule, 2)
    for op in ops:
        _apply(st, op)
    st.audit()
    table = st.forest
    row = table.alive_points()[0].row

    def corrupt(apply, undo):
        apply()
        with pytest.raises(AssertionError):
            st.audit()
        undo()
        st.audit()

    corrupt(lambda: table.count.__setitem__(row, table.count[row] + 1),
            lambda: table.count.__setitem__(row, table.count[row] - 1))
    corrupt(lambda: table.alive.__setitem__(row, False),
            lambda: table.alive.__setitem__(row, True))
    corrupt(lambda: setattr(table, "deleted", table.deleted + 1),
            lambda: setattr(table, "deleted", table.deleted - 1))
    p, payload = table.pts[row], table.pts[row].payload
    corrupt(lambda: setattr(p, "payload", [payload[0], 0]),
            lambda: setattr(p, "payload", payload))


def test_dynamic_spec_examples():
    # build on R{y=x}, B{y=-x}; insert blue y=-x+10 to be deleted at update 3
    cs = ConstraintSet([L(0, 1, 0)], [L(1, -1, 0)])
    st = DynState(cs, {}, 0)
    st.insert(L(2, -1, 10), Color.BLUE, delete_at=3)
    got = st.query(0)
    want = static_leftmost_valid(
        ConstraintSet([L(0, 1, 0)], [L(1, -1, 0), L(2, -1, 10)]), 0)
    assert got.status is want.status is LPStatus.FEASIBLE
    assert (got.point.x, got.point.y) == (want.point.x, want.point.y) == (5, 5)
    # a constraint satisfied everywhere (blue line far below) leaves the
    # query unchanged; verified against static recompute
    st2 = DynState(ConstraintSet([L(0, 0, 0), L(1, 2, -2)],
                                 [L(2, 0, -2), L(3, 2, 0)]), {}, 1)
    before = st2.query(1)
    st2.insert(L(9, 0, -100000), Color.BLUE, None)
    after = st2.query(1)
    assert before.status == after.status is LPStatus.UNBOUNDED
    want = static_leftmost_valid(
        ConstraintSet([L(0, 0, 0), L(1, 2, -2)],
                      [L(2, 0, -2), L(3, 2, 0), L(9, 0, -100000)]), 1)
    assert after.status == want.status
    # deleting the only blue line -> empty-side convention
    st3 = DynState(ConstraintSet([L(0, 1, 0)], [L(1, -1, 0)]),
                   {1: 1}, 0)
    st3.delete(1)
    r = st3.query(0)
    assert r.status is LPStatus.UNBOUNDED and r.reason == "empty-side"


def test_schedule_violations():
    cs = ConstraintSet([L(0, 1, 0)], [L(1, -1, 0)])
    st = DynState(cs, {0: 5}, 0)
    with pytest.raises(ScheduleViolation):
        st.delete(0)            # promised for update 5, arrives at 1
    assert st.u == 0 and 0 in st.live   # a rejected update changes nothing
    st2 = DynState(cs, {}, 0)
    with pytest.raises(ScheduleViolation):
        st2.delete(0)           # never promised
    with pytest.raises(UnknownId):
        st2.delete(42)
    with pytest.raises(ScheduleViolation):
        st2.insert(L(9, 2, 2), Color.RED, delete_at=1)  # not after insertion


def test_violation_count_definition(rng):
    red = random_lines(rng, 5)
    blue = random_lines(rng, 5, first_id=10)
    for _ in range(40):
        p = PointR2(Rat(rng.randint(-30, 30)), Rat(rng.randint(-30, 30)))
        v = violations_at(p, red, blue)
        direct = sum(1 for l in red if l.y_at(p.x) < p.y) + \
            sum(1 for l in blue if l.y_at(p.x) > p.y)
        assert v == direct


@st.composite
def degenerate_constraints(draw):
    """Red and blue lines on a small grid of non-integer slopes and
    intercepts: parallel and concurrent lines are common."""
    def lines(first_id, n):
        return [DLine(first_id + i,
                      Rat(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2, 3]))),
                      Rat(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2]))))
                for i in range(n)]
    return ConstraintSet(lines(0, draw(st.integers(1, 6))),
                         lines(100, draw(st.integers(1, 6))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cs=degenerate_constraints(), k=st.integers(0, 4))
def test_static_oracle_equivalence_degenerate(cs, k):
    red_l = [LineR2(l.m, l.c) for l in cs.red]
    blue_l = [LineR2(l.m, l.c) for l in cs.blue]
    want = oracle_leftmost_valid(red_l, blue_l, k)
    got = static_leftmost_valid(cs, k)
    assert got.status.value == want.witness["status"]
    if got.status is LPStatus.FEASIBLE:
        wp = want.witness["point"]
        assert (got.point.x, got.point.y) == (wp.x, wp.y)
        assert got.violations == want.witness["violations"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), k=st.integers(0, 3))
def test_dynamic_late_deletions_match_oracle(seed, k):
    # the reference is the brute-force oracle, which shares no code with
    # the solvers; half of the promised deletions arrive late
    rng = random.Random(seed)
    cs, schedule, ops = make_sequence(rng, rng.randint(4, 10), 40,
                                      late_share=0.5, late_max=12)
    dyn = DynState(cs, schedule, k)
    live = {l.id: (l, Color.RED) for l in cs.red}
    live.update({l.id: (l, Color.BLUE) for l in cs.blue})
    for step, op in enumerate(ops):
        _apply(dyn, op)
        if op[0] == "insert":
            live[op[1].id] = (op[1], op[2])
        else:
            del live[op[1]]
        dyn.audit()
        red_l = [LineR2(l.m, l.c) for l, c in live.values() if c is Color.RED]
        blue_l = [LineR2(l.m, l.c) for l, c in live.values() if c is Color.BLUE]
        want = oracle_leftmost_valid(red_l, blue_l, k)
        got = dyn.query(k)
        assert got.status.value == want.witness["status"], (step, op)
        if got.status is LPStatus.FEASIBLE:
            wp = want.witness["point"]
            assert (got.point.x, got.point.y) == (wp.x, wp.y), (step, op)
            assert got.violations == want.witness["violations"], (step, op)


def test_far_left_minimum_is_built_once_per_update(monkeypatch):
    """Queries between two updates share one far-gap build; the answers
    are those of a fresh structure."""
    import sepkit.lpviol as lpviol

    builds = []
    real = lpviol.FarGaps

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    cs, schedule, ops = make_sequence(random.Random(8), 10, 40)
    st_ = DynState(cs, schedule, 3)
    monkeypatch.setattr(lpviol, "FarGaps", counted)
    live = {l.id: (l, Color.RED) for l in cs.red}
    live.update({l.id: (l, Color.BLUE) for l in cs.blue})
    for op in ops:
        if op[0] == "insert":
            st_.insert(*op[1:])
            live[op[1].id] = (op[1], op[2])
        else:
            st_.delete(op[1])
            del live[op[1]]
        del builds[:]
        got = [st_.query(kq) for kq in (3, 1, 0)]
        red = [l for l, c in live.values() if c is Color.RED]
        blue = [l for l, c in live.values() if c is Color.BLUE]
        assert builds == ([1] if red and blue else [])
        fresh = DynState(ConstraintSet(red, blue), {}, 3)
        assert got == [fresh.query(kq) for kq in (3, 1, 0)]


def test_static_leftmost_breaks_x_ties_by_least_y():
    """Two valid candidates share the least x = 1, at y = -1 and y = 2: the
    candidates are compared as integer triples, y after x."""
    red = [L(0, 0, -1), L(1, -1, 1), L(2, 1, 1)]
    blue = [L(3, -2, 2), L(4, -1, 0), L(5, 0, 2)]
    got = static_leftmost_valid(ConstraintSet(red, blue), 2)
    assert (got.point, got.violations) == (PointR2(Rat(1), Rat(-1)), 2)
    want = oracle_leftmost_valid(red, blue, 2).witness
    assert (want["point"], want["violations"]) == (got.point, 2)


def test_static_min_violations_shares_one_line_set(monkeypatch):
    """static_min_violations builds the red + blue columns and far orders
    once, however many caps its vertex scans try."""
    rng = random.Random(11)
    red, blue = random_lines(rng, 100), random_lines(rng, 100, first_id=100)
    n = len(red) + len(blue)
    sets, orders, caps = [], [], []
    real_init = scans.LineSet.__init__
    real_far, real_kept = scans._far_index, scans._kept_blocks

    def init(self, *args):
        real_init(self, *args)
        sets.append(len(self.lines))

    def far_index(*args):
        orders.append(len(args[0]))
        return real_far(*args)

    def kept_blocks(*args):
        if len(args[0].lines) == n:
            caps.append(args[1])
        return real_kept(*args)

    monkeypatch.setattr(scans.LineSet, "__init__", init)
    monkeypatch.setattr(scans, "_far_index", far_index)
    monkeypatch.setattr(scans, "_kept_blocks", kept_blocks)
    k_min, res = static_min_violations(ConstraintSet(red, blue))
    assert len(caps) >= 3 and res.status is LPStatus.FEASIBLE
    assert sets.count(n) == 1
    assert orders.count(n) == 2


@pytest.mark.parametrize("call", [
    lambda cs: static_leftmost_valid(cs, -1),
    lambda cs: DynState(cs, {}, -1),
    lambda cs: DynState(cs, {}, 2).query(-1),
], ids=["static_leftmost_valid", "DynState", "DynState.query"])
def test_negative_k_is_refused(call):
    cs = ConstraintSet([L(0, 1, 0), L(1, 0, 2)], [L(2, -1, 0), L(3, 0, -2)])
    with pytest.raises(ValueError, match="k must be >= 0"):
        call(cs)
