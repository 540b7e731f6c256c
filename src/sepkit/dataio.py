"""Dataset file formats.

CSV: rows `x,y,color` with color in {R, B}; coordinates are decimal literals
(or `n/d` fractions for rationals without a finite decimal form).
JSON: `{"points": [{"x": "0", "y": "0", "c": "R"}, ...]}` with coordinates as
strings to preserve exactness.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from .core import Color, LabeledPoint
from .errors import ParseError
from .rat import rat, rat_decimal_str


def _parse_color(s: str) -> Color:
    s = s.strip().upper()
    if s == "R":
        return Color.RED
    if s == "B":
        return Color.BLUE
    raise ParseError(f"unknown color {s!r} (expected R or B)")


def points_from_csv(text: str) -> list[LabeledPoint]:
    pts = []
    for i, row in enumerate(csv.reader(io.StringIO(text))):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].strip().lower() == "x":  # optional header
            continue
        if len(row) != 3:
            raise ParseError(f"row {i}: expected x,y,color got {row!r}")
        try:
            x, y = rat(row[0].strip()), rat(row[1].strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"row {i}: bad coordinate: {exc}") from exc
        pts.append(LabeledPoint.of(x, y, _parse_color(row[2]), len(pts)))
    return pts


def points_to_csv(pts: Sequence[LabeledPoint]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    for lp in pts:
        w.writerow(
            [rat_decimal_str(lp.point.x), rat_decimal_str(lp.point.y), lp.color.value]
        )
    return out.getvalue()


def points_from_json(text: str) -> list[LabeledPoint]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError('expected an object with a "points" array')
    pts = []
    for i, rec in enumerate(doc["points"]):
        try:
            x, y = rat(str(rec["x"])), rat(str(rec["y"]))
            c = _parse_color(str(rec["c"]))
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"points[{i}]: {exc}") from exc
        pts.append(LabeledPoint.of(x, y, c, len(pts)))
    return pts


def points_to_json(pts: Sequence[LabeledPoint]) -> str:
    recs = [
        {
            "x": rat_decimal_str(lp.point.x),
            "y": rat_decimal_str(lp.point.y),
            "c": lp.color.value,
        }
        for lp in pts
    ]
    return json.dumps({"points": recs})


def load_points(path: str) -> list[LabeledPoint]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return points_from_json(text)
    return points_from_csv(text)

