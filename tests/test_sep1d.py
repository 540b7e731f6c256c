import random

import pytest
from hypothesis import given, settings, strategies as st

from sepkit.core import Color
from sepkit.errors import DuplicateCoordinate, UnknownId
from sepkit.oracle import oracle_1d
from sepkit.rat import Rat
from sepkit.sep1d import Orient1D, Point1D, Tree1D
from tests.conftest import DS1


def _tree(pts):
    t = Tree1D()
    for p in pts:
        t.insert(p)
    return t


def ds1_tree():
    return _tree([Point1D(x, c, i) for x, c, i in DS1])


def test_build_examples():
    t = ds1_tree()
    assert t.min_mis() == 1
    assert _tree([]).query(0).mis == 0
    t1 = _tree([Point1D.of(1, Color.RED, 0)])
    assert t1.min_mis() == 0
    r = t1.query(0)
    assert r.mis == 0 and r.max_dist == 0


def test_query_examples():
    t = ds1_tree()
    r = t.query(4)
    assert (r.separator_x, r.mis, r.max_dist) == (4, 2, 1)
    r = t.query(1)
    assert (r.separator_x, r.max_dist) == (3, 2)  # tie with 5 broken to smaller x
    assert t.query(0) is None


def test_update_examples():
    t = ds1_tree()
    t.insert(Point1D.of(0, Color.BLUE, 10))
    assert t.query(1) is None
    r = t.query(2)
    assert r.separator_x == Rat(5, 2) and r.max_dist == Rat(5, 2)
    t.delete(10)
    r = t.query(1)
    assert (r.separator_x, r.max_dist) == (3, 2)
    # deleting point 7 lowers k_min to 1 with a new optimum
    t.delete(3)
    assert t.min_mis() == 1
    assert t.query(1) is not None


def test_update_errors():
    t = ds1_tree()
    with pytest.raises(DuplicateCoordinate):
        t.insert(Point1D.of(3, Color.RED, 99))
    with pytest.raises(DuplicateCoordinate):
        t.insert(Point1D.of(42, Color.RED, 0))
    with pytest.raises(UnknownId):
        t.delete(1234)


def test_op_wrappers():
    t = ds1_tree()
    t.insert(Point1D.of(10, Color.RED, 11))
    t.delete(11)
    assert t.query(1).separator_x == 3


def _result_key(res):
    if res is None:
        return None
    return (res.max_dist, res.separator_x)


def test_oracle_equivalence_random():
    rng = random.Random(1717)
    for seq in range(12):
        t = Tree1D()
        live = {}
        next_id = 0
        used = set()
        for step in range(120):
            if live and rng.random() < 0.4:
                id_ = rng.choice(list(live))
                t.delete(id_)
                del live[id_]
            else:
                while True:
                    x = Rat(rng.randint(-300, 300), rng.randint(1, 4))
                    if x not in used:
                        break
                used.add(x)
                p = Point1D(x, Color.RED if rng.random() < 0.5 else Color.BLUE,
                            next_id)
                t.insert(p)
                live[next_id] = p
                next_id += 1
            n = len(live)
            for k in {0, 1, 2, 5, n}:
                got = t.query(k)
                want = oracle_1d(list(live.values()), k)
                if want.value is None:
                    assert got is None, (seq, step, k)
                else:
                    assert got is not None, (seq, step, k)
                    assert got.max_dist == want.value, (seq, step, k)
                    if want.value > 0:
                        # at value 0 the optima form an interval; positions
                        # are only canonical for positive values
                        assert got.separator_x == want.witness["separator_x"], \
                            (seq, step, k)
            if step % 29 == 0:
                t.audit()


def test_node_annotation_soundness():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(1, 60)
        xs = rng.sample(range(-500, 500), n)
        pts = [Point1D.of(x, Color.RED if rng.random() < 0.5 else Color.BLUE, i)
               for i, x in enumerate(xs)]
        t = _tree(pts)
        t.audit()
        # root M equals brute-force interval scan per orientation
        for orient in Orient1D:
            left_color = Color.RED if orient is Orient1D.RED_LEFT else Color.BLUE
            coords = sorted(p.x for p in pts)
            positions = [coords[0] - 1] + [
                (a + b) / 2 for a, b in zip(coords, coords[1:])
            ] + [coords[-1] + 1]
            best = min(
                sum(1 for p in pts if (p.x < s) != (p.color is left_color)
                    and p.x != s)
                for s in positions
            )
            got = t.root.m_rl if orient is Orient1D.RED_LEFT else t.root.m_bl
            assert got == best


def test_insert_delete_inverse(rng):
    t = ds1_tree()
    before = [(k, _result_key(t.query(k))) for k in range(0, 6)]
    t.insert(Point1D.of(100, Color.RED, 50))
    t.delete(50)
    after = [(k, _result_key(t.query(k))) for k in range(0, 6)]
    assert before == after


# one update: (delete?, x numerator, x denominator, red?, which live id)
_UPDATES = st.tuples(st.booleans(), st.integers(-4, 4), st.sampled_from([1, 2]),
                     st.booleans(), st.integers(0, 50))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=st.lists(_UPDATES, max_size=40),
       colours=st.sampled_from(["both", "red", "blue"]))
def test_stream_matches_oracle(ops, colours):
    """Inserts on 13 coordinates (so duplicates are frequent and
    rejected), deletes that empty the live set, and streams with one colour
    only; every state is audited and compared with oracle_1d."""
    t, live = Tree1D(), {}
    for next_id, (delete, num, den, red, pick) in enumerate(ops):
        if delete and live:
            id_ = sorted(live)[pick % len(live)]
            t.delete(id_)
            del live[id_]
        else:
            if colours != "both":
                red = colours == "red"
            p = Point1D(Rat(num, den), Color.RED if red else Color.BLUE, next_id)
            if any(q.x == p.x for q in live.values()):
                with pytest.raises(DuplicateCoordinate):
                    t.insert(p)
            else:
                t.insert(p)
                live[next_id] = p
        t.audit()
        pts = list(live.values())
        assert len(t) == len(pts)
        feasible = []
        for k in range(4):
            got, want = t.query(k), oracle_1d(pts, k)
            feasible.append(want.value is not None)
            if want.value is None:
                assert got is None
                continue
            assert got.max_dist == want.value and got.mis <= k
            if not pts:
                assert got.separator_x is None
            elif want.value > 0:
                assert got.separator_x == want.witness["separator_x"]
                assert got.orientation == want.witness["orientation"]
        if True in feasible:
            assert t.min_mis() == feasible.index(True)
