import csv
import io
import json

import pytest

from sepkit.core import Color, LabeledPoint
from sepkit.dataio import points_from_csv, points_from_json
from sepkit.errors import ParseError
from sepkit.rat import Rat
from tests.conftest import rat_decimal_str


def _rows(pts):
    """Each point as exact decimal (or n/d) strings and its colour letter."""
    return [(rat_decimal_str(p.point.x), rat_decimal_str(p.point.y), p.color.value)
            for p in pts]


def points_to_csv(pts):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(_rows(pts))
    return out.getvalue()


def points_to_json(pts):
    return json.dumps({"points": [{"x": x, "y": y, "c": c}
                                  for x, y, c in _rows(pts)]})


def test_csv_round_trip_exact():
    pts = [
        LabeledPoint.of(Rat(1, 3), Rat(-7, 2), Color.RED, 0),
        LabeledPoint.of("0.25", "12", Color.BLUE, 1),
    ]
    again = points_from_csv(points_to_csv(pts))
    assert [(p.point.x, p.point.y, p.color) for p in again] == \
        [(p.point.x, p.point.y, p.color) for p in pts]


def test_json_round_trip_exact():
    pts = [
        LabeledPoint.of(Rat(22, 7), Rat(1, 10), Color.RED, 0),
        LabeledPoint.of(-3, 5, Color.BLUE, 1),
    ]
    again = points_from_json(points_to_json(pts))
    assert [(p.point.x, p.point.y, p.color) for p in again] == \
        [(p.point.x, p.point.y, p.color) for p in pts]


def test_csv_parses_decimals_and_fractions():
    pts = points_from_csv("0.5,-2,R\n1/3,4,B\n")
    assert pts[0].point.x == Rat(1, 2)
    assert pts[1].point.x == Rat(1, 3)
    assert pts[1].color is Color.BLUE


def test_csv_header_and_blank_lines():
    pts = points_from_csv("x,y,color\n\n1,2,R\n")
    assert len(pts) == 1


def test_parse_errors():
    with pytest.raises(ParseError):
        points_from_csv("1,2\n")
    with pytest.raises(ParseError):
        points_from_csv("1,2,G\n")
    with pytest.raises(ParseError):
        points_from_csv("a,2,R\n")
    with pytest.raises(ParseError):
        points_from_json("{}")
    with pytest.raises(ParseError):
        points_from_json("not json")
