"""Exact planar primitives: points, non-vertical lines, duality, distances,
and misclassification evaluation.

Conventions used throughout the package:

* A separator is a non-vertical line plus an orientation.  With orientation
  BLUE_ABOVE, blue points belong strictly above the line and red points
  strictly below; points exactly on the line are always classified correctly.
* The dual map sends point (a, b) to line y = a*x - b and line y = m*x + c
  to point (m, -c).  It preserves vertical distances and flips above/below:
  p lies strictly above l  iff  l* lies strictly above p*.
* All values are immutable once constructed and safe to share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CollinearPointsError,
    DuplicateCoordinate,
    ValidationError,
)
from .rat import R0, R1, Rat, RatLike, RatT, rat


class Color(enum.Enum):
    RED = "R"
    BLUE = "B"

    def other(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


class Orientation(enum.Enum):
    BLUE_ABOVE = "BlueAbove"
    RED_ABOVE = "RedAbove"


@dataclass(frozen=True)
class PointR2:
    x: RatT
    y: RatT

    @staticmethod
    def of(x: RatLike, y: RatLike) -> "PointR2":
        return PointR2(rat(x), rat(y))

    def __repr__(self):
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class LineR2:
    """Non-vertical line y = m*x + c."""

    m: RatT
    c: RatT

    @staticmethod
    def of(m: RatLike, c: RatLike) -> "LineR2":
        return LineR2(rat(m), rat(c))

    @staticmethod
    def through(p: PointR2, q: PointR2) -> "LineR2":
        """Line through two points with distinct x-coordinates."""
        if p.x == q.x:
            raise ValidationError(f"line through {p} and {q} is vertical")
        m = (q.y - p.y) / (q.x - p.x)
        return LineR2(m, p.y - m * p.x)

    def y_at(self, x: RatT) -> RatT:
        return self.m * x + self.c

    def __repr__(self):
        return f"y = {self.m}x + {self.c}"


@dataclass(frozen=True)
class LabeledPoint:
    point: PointR2
    color: Color
    id: int

    @staticmethod
    def of(x: RatLike, y: RatLike, color: Color, id: int) -> "LabeledPoint":
        return LabeledPoint(PointR2.of(x, y), color, id)


@dataclass(frozen=True)
class Separator:
    line: LineR2
    orientation: Orientation


@dataclass(frozen=True)
class MisReport:
    mis: int
    max_sq: RatT
    misclassified_ids: tuple[int, ...]


def dualize_point(p: PointR2) -> LineR2:
    """Point (px, py) maps to the dual line y = px*x - py."""
    return LineR2(p.x, -p.y)


def dualize_line(l: LineR2) -> PointR2:
    """Line y = m*x + c maps to the dual point (m, -c)."""
    return PointR2(l.m, -l.c)


def vertical_distance(p: PointR2, l: LineR2) -> RatT:
    """Signed vertical distance p.y - l(p.x); positive when p is above l."""
    return p.y - (l.m * p.x + l.c)


def euclid_dist_sq(p: PointR2, l: LineR2) -> RatT:
    """Exact squared Euclidean distance from p to l."""
    v = vertical_distance(p, l)
    return v * v / (l.m * l.m + R1)


def classify_mis(sep: Separator, pts: Sequence[LabeledPoint]) -> MisReport:
    """Count misclassified points and the exact squared distance to the
    farthest one (0 when nothing is misclassified)."""
    bad: list[int] = []
    max_sq = R0
    denom = sep.line.m * sep.line.m + R1
    for lp in pts:
        v = vertical_distance(lp.point, sep.line)
        if v == 0:
            continue
        above = v > 0
        if sep.orientation is Orientation.BLUE_ABOVE:
            wrong = above if lp.color is Color.RED else not above
        else:
            wrong = above if lp.color is Color.BLUE else not above
        if wrong:
            bad.append(lp.id)
            d = v * v / denom
            if d > max_sq:
                max_sq = d
    return MisReport(len(bad), max_sq, tuple(sorted(bad)))


def split_colors(
    pts: Iterable[LabeledPoint],
) -> tuple[list[LabeledPoint], list[LabeledPoint]]:
    reds = [p for p in pts if p.color is Color.RED]
    blues = [p for p in pts if p.color is Color.BLUE]
    return reds, blues


def validate_points(
    pts: Sequence[LabeledPoint],
    strict: bool = False,
    check_collinear: bool | None = None,
) -> None:
    """Validate a dataset at ingestion.

    Always rejects duplicate ids and coincident points.  With strict=True it
    enforces the full general-position contract: unique x- and unique
    y-coordinates and no three collinear points (collinearity checked for
    inputs up to 600 points unless overridden).  Degenerate inputs can be
    repaired with perturb_points.
    """
    ids = set()
    seen: dict[tuple, int] = {}
    xs: dict[RatT, int] = {}
    ys: dict[RatT, int] = {}
    for lp in pts:
        if lp.id in ids:
            raise ValidationError(f"duplicate point id {lp.id}")
        ids.add(lp.id)
        key = (lp.point.x, lp.point.y)
        if key in seen:
            raise DuplicateCoordinate(
                f"points {seen[key]} and {lp.id} coincide at {lp.point}"
            )
        seen[key] = lp.id
        if strict:
            if lp.point.x in xs:
                raise DuplicateCoordinate(
                    f"points {xs[lp.point.x]} and {lp.id} share x = {lp.point.x}"
                )
            if lp.point.y in ys:
                raise DuplicateCoordinate(
                    f"points {ys[lp.point.y]} and {lp.id} share y = {lp.point.y}"
                )
            xs[lp.point.x] = lp.id
            ys[lp.point.y] = lp.id
    if not strict:
        return
    if check_collinear is None:
        check_collinear = len(pts) <= 600
    if check_collinear and len(pts) >= 3:
        _check_no_three_collinear(pts)


def _check_no_three_collinear(pts: Sequence[LabeledPoint]) -> None:
    # Per anchor, hash exact reduced directions to the other points.
    from math import gcd

    n = len(pts)
    for i in range(n):
        seen: dict[tuple[int, int], int] = {}
        pi = pts[i].point
        for j in range(i + 1, n):
            pj = pts[j].point
            dx, dy = pj.x - pi.x, pj.y - pi.y
            # exact direction as a reduced integer pair
            a = int(dx.numerator) * int(dy.denominator)
            b = int(dy.numerator) * int(dx.denominator)
            g = gcd(abs(a), abs(b))
            if g:
                a, b = a // g, b // g
            if a < 0 or (a == 0 and b < 0):
                a, b = -a, -b
            key = (a, b)
            if key in seen:
                raise CollinearPointsError(
                    f"points {pts[i].id}, {seen[key]}, {pts[j].id} are collinear"
                )
            seen[key] = pts[j].id


def perturb_points(
    pts: Sequence[LabeledPoint], eta: RatLike = Rat(1, 2**40)
) -> list[LabeledPoint]:
    """Deterministic symbolic-style perturbation: add id*eta to both
    coordinates of each point.  The result is re-validated by callers."""
    e = rat(eta)
    return [
        LabeledPoint(
            PointR2(lp.point.x + lp.id * e, lp.point.y + lp.id * e), lp.color, lp.id
        )
        for lp in pts
    ]

