import itertools
import random

import pytest

from sepkit.core import Color, LabeledPoint, PointR2, vertical_distance
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
