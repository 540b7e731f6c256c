import pytest

from sepkit.core import (
    Color,
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    classify_mis,
    dualize_line,
    dualize_point,
    euclid_dist_sq,
    perturb_points,
    validate_points,
    vertical_distance,
)
from sepkit.errors import CollinearPointsError, DuplicateCoordinate
from sepkit.rat import Rat


def test_dualize_point_examples():
    assert dualize_point(PointR2.of(2, 3)) == LineR2.of(2, -3)
    assert dualize_point(PointR2.of(0, 0)) == LineR2.of(0, 0)
    assert dualize_point(PointR2.of(1, -1)) == LineR2.of(1, 1)


def test_dualize_line_examples():
    assert dualize_line(LineR2.of(2, 1)) == PointR2.of(2, -1)
    assert dualize_line(LineR2.of(0, 0)) == PointR2.of(0, 0)
    p = PointR2.of(5, 7)
    assert dualize_line(dualize_point(p)) == p


def test_vertical_distance_examples():
    assert vertical_distance(PointR2.of(0, 0), LineR2.of(2, 1)) == -1
    l = LineR2.of(3, -2)
    assert vertical_distance(PointR2.of(1, 1), l) == 0
    assert vertical_distance(PointR2.of(1, 3), LineR2.of(1, 0)) == 2


def test_euclid_dist_sq_examples():
    assert euclid_dist_sq(PointR2.of(2, 0), LineR2.of(1, 0)) == 2
    assert euclid_dist_sq(PointR2.of(1, 1), LineR2.of(1, 0)) == 0
    assert euclid_dist_sq(PointR2.of(0, 0), LineR2.of(0, 1)) == 1


def test_classify_mis_ds3(ds3):
    rep = classify_mis(Separator(LineR2.of(1, 0), Orientation.BLUE_ABOVE), ds3)
    assert rep.mis == 1 and rep.max_sq == 2 and rep.misclassified_ids == (3,)
    rep = classify_mis(Separator(LineR2.of(0, 1), Orientation.BLUE_ABOVE), ds3)
    assert rep.mis == 2 and rep.max_sq == 1
    assert set(rep.misclassified_ids) == {1, 3}
    assert classify_mis(Separator(LineR2.of(0, 1), Orientation.BLUE_ABOVE), []) \
        == classify_mis(Separator(LineR2.of(0, 1), Orientation.BLUE_ABOVE), [])


def test_classify_empty():
    rep = classify_mis(Separator(LineR2.of(1, 1), Orientation.BLUE_ABOVE), [])
    assert rep.mis == 0 and rep.max_sq == 0


def test_duality_preserves_vertical_distance(rng):
    for _ in range(300):
        p = PointR2.of(rng.randint(-50, 50), rng.randint(-50, 50))
        l = LineR2.of(Rat(rng.randint(-9, 9), rng.randint(1, 4)),
                      rng.randint(-50, 50))
        d1 = vertical_distance(p, l)
        d2 = vertical_distance(dualize_line(l), dualize_point(p))
        assert abs(d1) == abs(d2)
        # above/below flip
        assert (d1 > 0) == (d2 > 0)


def test_dist_identity(rng):
    for _ in range(200):
        p = PointR2.of(rng.randint(-50, 50), rng.randint(-50, 50))
        l = LineR2.of(Rat(rng.randint(-9, 9), rng.randint(1, 4)),
                      rng.randint(-50, 50))
        v = vertical_distance(p, l)
        assert euclid_dist_sq(p, l) * (l.m * l.m + 1) == v * v


def test_orientation_mirror(rng):
    from tests.conftest import random_instance

    for _ in range(30):
        pts = random_instance(rng, rng.randint(2, 12))
        swapped = [LabeledPoint(p.point, p.color.other(), p.id) for p in pts]
        l = LineR2.of(Rat(rng.randint(-5, 5), rng.randint(1, 3)),
                      rng.randint(-20, 20))
        a = classify_mis(Separator(l, Orientation.BLUE_ABOVE), pts)
        b = classify_mis(Separator(l, Orientation.RED_ABOVE), swapped)
        assert a.mis == b.mis and a.max_sq == b.max_sq


def test_validate_basic_and_strict():
    pts = [LabeledPoint.of(0, 0, Color.RED, 0), LabeledPoint.of(0, 2, Color.BLUE, 1)]
    validate_points(pts)  # duplicate x allowed in basic mode
    with pytest.raises(DuplicateCoordinate):
        validate_points(pts, strict=True)
    dup = [LabeledPoint.of(0, 0, Color.RED, 0), LabeledPoint.of(0, 0, Color.BLUE, 1)]
    with pytest.raises(DuplicateCoordinate):
        validate_points(dup)
    col = [
        LabeledPoint.of(0, 0, Color.RED, 0),
        LabeledPoint.of(1, 1, Color.BLUE, 1),
        LabeledPoint.of(2, 2, Color.RED, 2),
    ]
    with pytest.raises(CollinearPointsError):
        validate_points(col, strict=True)


def test_perturbation_repairs_degeneracy():
    pts = [
        LabeledPoint.of(0, 0, Color.RED, 1),
        LabeledPoint.of(0, 2, Color.BLUE, 2),
        LabeledPoint.of(2, 4, Color.RED, 3),
    ]
    fixed = perturb_points(pts)
    validate_points(fixed, strict=True)
