import itertools
import random

import pytest

from sepkit.core import Color, LabeledPoint, PointR2, split_colors, \
    vertical_distance
from sepkit.errors import UnknownId, VerticalSeparator
from sepkit.hullmargin import (
    HullPair,
    StripStatus,
    convex_hull,
    hull_distance,
    hulls_intersect,
    max_margin_static,
)
from sepkit.rat import Rat
from tests.conftest import random_instance, random_separable_instance


def test_static_examples(ds2, ds3):
    r = max_margin_static(ds2)
    assert r.status is StripStatus.SEPARABLE
    assert r.width_sq == 9
    assert r.separator.line.m == 0 and r.separator.line.c == Rat(3, 2)
    assert max_margin_static(ds3).status is StripStatus.NOT_SEPARABLE
    r = max_margin_static(
        [LabeledPoint.of(0, 0, Color.RED, 0), LabeledPoint.of(3, 4, Color.BLUE, 1)]
    )
    assert r.width_sq == 25
    assert r.separator.line.m == Rat(-3, 4)
    assert r.separator.line.y_at(Rat(3, 2)) == 2


def test_empty_side():
    r = max_margin_static([LabeledPoint.of(0, 0, Color.RED, 0)])
    assert r.status is StripStatus.EMPTY_SIDE


def test_touching_hulls_not_separable():
    pts = [
        LabeledPoint.of(0, 0, Color.RED, 0),
        LabeledPoint.of(2, 2, Color.RED, 1),
        LabeledPoint.of(1, 1, Color.BLUE, 2),   # on the red hull boundary
        LabeledPoint.of(5, 9, Color.BLUE, 3),
    ]
    assert max_margin_static(pts).status is StripStatus.NOT_SEPARABLE


def test_dynamic_examples(ds2):
    pair = HullPair(ds2)
    r = pair.insert(LabeledPoint.of(Rat(1, 2), 1, Color.BLUE, 4))
    assert r.status is StripStatus.SEPARABLE and r.width_sq == 1
    assert r.separator.line.m == 0 and r.separator.line.c == Rat(1, 2)
    before = pair.delete(4)
    r2 = pair.insert(LabeledPoint.of(Rat(1, 2), -1, Color.BLUE, 5))
    assert r2.status is StripStatus.NOT_SEPARABLE
    after = pair.delete(5)
    assert (before.status, before.width_sq) == (after.status, after.width_sq)
    with pytest.raises(UnknownId):
        pair.delete(999)


def test_build_independent_of_order():
    # the prefix red (0,0), blue (2,0) has a vertical max-margin separator,
    # the whole set does not
    pts = [LabeledPoint.of(0, 0, Color.RED, 0),
           LabeledPoint.of(2, 0, Color.BLUE, 1),
           LabeledPoint.of(0, 3, Color.BLUE, 2)]
    want = max_margin_static(pts)
    assert want.width_sq == Rat(36, 13)
    for order in itertools.permutations(pts):
        assert HullPair(order).result() == want


def test_vertical_separator_rejected():
    pts = [LabeledPoint.of(0, 0, Color.RED, 0), LabeledPoint.of(4, 0, Color.BLUE, 1)]
    with pytest.raises(VerticalSeparator):
        max_margin_static(pts)


def _check_invariants(pts, res):
    # perpendicularity
    rp, bp = res.witness_points
    if bp.x != rp.x:
        ws = (bp.y - rp.y) / (bp.x - rp.x)
        assert res.separator.line.m * ws == -1
    else:
        assert res.separator.line.m == 0
    # strip emptiness: no point strictly inside the strip of width sqrt(w2)
    m = res.separator.line.m
    for p in pts:
        v = vertical_distance(p.point, res.separator.line)
        d2 = v * v / (m * m + 1)
        assert v == 0 or 4 * d2 >= res.width_sq
    # witness pair realizes the hull distance
    assert (rp.x - bp.x) ** 2 + (rp.y - bp.y) ** 2 == res.width_sq


def test_static_separable_random(rng):
    for _ in range(60):
        pts = random_separable_instance(rng, rng.randint(2, 24))
        res = max_margin_static(pts)
        assert res.status is StripStatus.SEPARABLE
        _check_invariants(pts, res)
        # oracle: distance between from-scratch hulls
        reds = [p.point for p in pts if p.color is Color.RED]
        blues = [p.point for p in pts if p.color is Color.BLUE]
        d, _, _ = hull_distance(convex_hull(reds), convex_hull(blues))
        assert d == res.width_sq


def test_dynamic_equals_static_random(rng):
    pair = HullPair()
    live = {}
    nid = 0
    steps = 0
    while steps < 300:
        if live and rng.random() < 0.35:
            id_ = rng.choice(list(live))
            got = pair.delete(id_)
            del live[id_]
        else:
            while True:
                x = Rat(rng.randint(-200, 200), rng.randint(1, 3))
                y = Rat(rng.randint(-200, 200), rng.randint(1, 3))
                if all((x, y) != (q.point.x, q.point.y) for q in live.values()):
                    break
            lp = LabeledPoint(PointR2(x, y),
                              Color.RED if rng.random() < 0.5 else Color.BLUE, nid)
            try:
                got = pair.insert(lp)
            except VerticalSeparator:
                pair.delete(nid)
                nid += 1
                continue
            live[nid] = lp
            nid += 1
        steps += 1
        try:
            want = max_margin_static(list(live.values()))
        except VerticalSeparator:
            continue
        assert got.status == want.status
        if got.status is StripStatus.SEPARABLE:
            assert got.width_sq == want.width_sq
            _check_invariants(list(live.values()), got)


def test_hull_matches_from_scratch(rng):
    from sepkit.hullmargin import DynHull

    h = DynHull()
    live = {}
    for i in range(120):
        if live and rng.random() < 0.4:
            id_ = rng.choice(list(live))
            h.delete(id_)
            del live[id_]
        else:
            p = PointR2.of(rng.randint(-40, 40), rng.randint(-40, 40))
            if any((p.x, p.y) == (q.x, q.y) for q in live.values()):
                continue
            h.insert(p, i)
            live[i] = p
        assert h.hull() == convex_hull(list(live.values()))


def test_hulls_intersect_cases():
    sq = [PointR2.of(0, 0), PointR2.of(4, 0), PointR2.of(4, 4), PointR2.of(0, 4)]
    inner = [PointR2.of(1, 1), PointR2.of(2, 2)]
    far = [PointR2.of(10, 10), PointR2.of(11, 12)]
    assert hulls_intersect(convex_hull(sq), convex_hull(inner))
    assert not hulls_intersect(convex_hull(sq), convex_hull(far))


def test_id_live_in_other_color_rejected():
    red0 = LabeledPoint.of(0, 0, Color.RED, 0)
    pair = HullPair([red0, LabeledPoint.of(1, 5, Color.BLUE, 1)])
    before = pair.result()
    with pytest.raises(UnknownId):
        pair.insert(LabeledPoint.of(3, 3, Color.BLUE, 0))
    assert pair.result() == before
    assert (len(pair.red), len(pair.blue)) == (1, 1)
    assert pair.delete(0).status is StripStatus.EMPTY_SIDE
    assert (len(pair.red), len(pair.blue)) == (0, 1)
    with pytest.raises(UnknownId):
        HullPair([red0, LabeledPoint.of(3, 3, Color.BLUE, 0)])


# The pairwise closed-hull intersection predicate the strip used before it
# decided separability from the closest pair: point-in-hull tests, then every
# edge pair.  Kept here as the reference.

def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _ref_segments(hull):
    n = len(hull)
    if n == 1:
        return [(hull[0], hull[0])]
    return [(hull[i], hull[(i + 1) % n]) for i in range(n if n > 2 else 1)]


def _ref_point_in_hull(p, hull):
    n = len(hull)
    if n == 1:
        return p.x == hull[0].x and p.y == hull[0].y
    if n == 2:
        a, b = hull
        return _cross(a, b, p) == 0 and _ref_on_seg(a, b, p)
    return all(_cross(hull[i], hull[(i + 1) % n], p) >= 0 for i in range(n))


def _ref_on_seg(a, b, c):
    return _cross(a, b, c) == 0 and min(a.x, b.x) <= c.x <= max(a.x, b.x) \
        and min(a.y, b.y) <= c.y <= max(a.y, b.y)


def _ref_segs_intersect(p1, p2, q1, q2):
    d1, d2 = _cross(q1, q2, p1), _cross(q1, q2, p2)
    d3, d4 = _cross(p1, p2, q1), _cross(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return _ref_on_seg(q1, q2, p1) or _ref_on_seg(q1, q2, p2) or \
        _ref_on_seg(p1, p2, q1) or _ref_on_seg(p1, p2, q2)


def _ref_hulls_intersect(ha, hb):
    if not ha or not hb:
        return False
    if any(_ref_point_in_hull(p, hb) for p in ha) or \
            any(_ref_point_in_hull(p, ha) for p in hb):
        return True
    return any(_ref_segs_intersect(a1, a2, b1, b2)
               for a1, a2 in _ref_segments(ha) for b1, b2 in _ref_segments(hb))


def _check_against_reference(pts):
    """max_margin_static against the reference decision: NOT_SEPARABLE exactly
    when the closed hulls meet; otherwise the strip of hull_distance's pair,
    or VerticalSeparator when that pair is horizontal."""
    reds, blues = split_colors(pts)
    rh = convex_hull([p.point for p in reds])
    bh = convex_hull([p.point for p in blues])
    meet = _ref_hulls_intersect(rh, bh)
    if not rh or not bh:
        assert max_margin_static(pts).status is StripStatus.EMPTY_SIDE
        return None
    if meet:
        assert max_margin_static(pts).status is StripStatus.NOT_SEPARABLE
        return StripStatus.NOT_SEPARABLE
    d, rp, bp = hull_distance(rh, bh)
    if rp.y == bp.y:
        with pytest.raises(VerticalSeparator):
            max_margin_static(pts)
        return VerticalSeparator
    res = max_margin_static(pts)
    assert res.status is StripStatus.SEPARABLE
    assert (res.width_sq, res.witness_points) == (d, (rp, bp))
    _check_invariants(pts, res)
    ids = {(p.point.x, p.point.y): p.id for p in pts}
    for got, p in zip(res.witness, (rp, bp)):
        assert got == ids.get((p.x, p.y), got)
    return StripStatus.SEPARABLE


def test_matches_pairwise_reference_on_grids():
    rng = random.Random(2121)
    seen = set()
    for _ in range(3000):
        side = rng.randint(2, 5)
        cells = rng.sample(list(itertools.product(range(side), repeat=2)),
                           rng.randint(2, min(9, side * side)))
        pts = [LabeledPoint.of(x, y, rng.choice((Color.RED, Color.BLUE)), i)
               for i, (x, y) in enumerate(cells)]
        seen.add(_check_against_reference(pts))
    assert {StripStatus.SEPARABLE, StripStatus.NOT_SEPARABLE,
            VerticalSeparator, None} <= seen


def _pts(red, blue):
    return [LabeledPoint.of(x, y, Color.RED, i) for i, (x, y) in enumerate(red)] + \
        [LabeledPoint.of(x, y, Color.BLUE, len(red) + i)
         for i, (x, y) in enumerate(blue)]


# pinned: (hull_distance's d, witness ids, separator (m, c)), or None
@pytest.mark.parametrize("red, blue, want, pinned", [
    # crossing thin rectangles: every vertex-edge distance is positive
    ([(5, 1), (-5, 1), (-5, -1), (5, -1)], [(1, 5), (-1, 5), (-1, -5), (1, -5)],
     StripStatus.NOT_SEPARABLE, (16, None, None)),
    # touching hulls whose witness is horizontal: no vertical separator
    ([(0, 0), (2, 0)], [(1, 0), (1, 5)], StripStatus.NOT_SEPARABLE, None),
    # collinear segments: disjoint, disjoint on a horizontal, overlapping
    ([(0, 0), (1, 1)], [(3, 3), (4, 4)], StripStatus.SEPARABLE,
     (8, (1, 2), (-1, 4))),
    ([(0, 0), (1, 0)], [(3, 0), (4, 0)], VerticalSeparator, None),
    ([(0, 0), (2, 2)], [(1, 1), (3, 3)], StripStatus.NOT_SEPARABLE, None),
    # single-point hulls
    ([(0, 0)], [(3, 4)], StripStatus.SEPARABLE, None),
    ([(1, 1)], [(0, 0), (2, 2)], StripStatus.NOT_SEPARABLE, None),
    ([(1, 3)], [(0, 0), (2, 2)], StripStatus.SEPARABLE, None),
    # a point strictly inside the other hull
    ([(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 2)], StripStatus.NOT_SEPARABLE, None),
    ([(2, 1)], [(0, 0), (6, 0), (0, 6)], StripStatus.NOT_SEPARABLE, None),
])
def test_named_reference_cases(red, blue, want, pinned):
    pts = _pts(red, blue)
    assert _check_against_reference(pts) is want
    if pinned is None:
        return
    d, witness, line = pinned
    assert hull_distance(convex_hull([PointR2.of(*q) for q in red]),
                         convex_hull([PointR2.of(*q) for q in blue]))[0] == d
    if witness is not None:
        res = max_margin_static(pts)
        assert res.witness == witness
        assert (res.separator.line.m, res.separator.line.c) == line
