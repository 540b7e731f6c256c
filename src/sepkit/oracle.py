"""Independent brute-force solvers used as ground truth in tests.

Everything here trades speed for transparency: exhaustive candidate
enumeration with exact arithmetic, no shared code paths with the real
solvers beyond the basic geometric types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .core import (
    Color,
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    classify_mis,
    split_colors,
)
from .errors import CapExceeded
from .rat import R0, Rat, RatT, rat
from .sep1d import Orient1D, Point1D


@dataclass(frozen=True)
class OracleReport:
    problem: str
    value: Optional[RatT]          # max_sq / max_dist / k_min depending on problem
    witness: Optional[object]
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# 1D
# ---------------------------------------------------------------------------


def oracle_1d(pts: Sequence[Point1D], k: int) -> OracleReport:
    """Exhaustive scan over all candidate separator positions in R^1.

    Picks, among the `oracle_1d_table` rows with at most k misclassified
    points, the least (value, position, orientation rank).  Value is the
    distance to the farthest misclassified point; the empty set reports
    value 0 and no witness.
    """
    rows = oracle_1d_table(pts)
    stats = {"positions": len(rows) // 2}
    valid = [row for row in rows if row[0] <= k]
    if not valid:
        return OracleReport("1d", None, None, stats)
    mis, val, s, oi = min(valid, key=lambda row: (row[1], row[2], row[3]))
    if s is None:
        return OracleReport("1d", val, None, stats)
    orient = (Orient1D.RED_LEFT, Orient1D.BLUE_LEFT)[oi]
    return OracleReport(
        "1d", val, {"separator_x": s, "mis": mis, "orientation": orient}, stats,
    )


def _count_lt(sorted_xs: list, x) -> int:
    import bisect

    return bisect.bisect_left(sorted_xs, x)


def _count_gt(sorted_xs: list, x) -> int:
    import bisect

    return len(sorted_xs) - bisect.bisect_right(sorted_xs, x)


# ---------------------------------------------------------------------------
# LP with violations (dual plane brute force)
# ---------------------------------------------------------------------------


def _violations(p: PointR2, red: Sequence[LineR2], blue: Sequence[LineR2]) -> int:
    v = 0
    for l in red:
        if l.y_at(p.x) < p.y:
            v += 1
    for l in blue:
        if l.y_at(p.x) > p.y:
            v += 1
    return v


def _far_gap_counts(
    red: Sequence[LineR2], blue: Sequence[LineR2], side: int
) -> list[int]:
    """Violation count of every 'gap' between consecutive lines at
    x = side * infinity (side is -1 or +1).

    There, lines are ordered bottom-to-top by side * slope, ties by
    increasing intercept.  Gap i sits above the first i lines.
    """
    order = sorted(
        [(l, Color.RED) for l in red] + [(l, Color.BLUE) for l in blue],
        key=lambda t: (side * t[0].m, t[0].c),
    )
    counts = []
    reds_below = 0
    blues_above = sum(1 for _, c in order if c is Color.BLUE)
    for _, c in order:
        counts.append(reds_below + blues_above)
        if c is Color.RED:
            reds_below += 1
        else:
            blues_above -= 1
    counts.append(reds_below + blues_above)
    return counts


def oracle_leftmost_valid(
    red: Sequence[LineR2], blue: Sequence[LineR2], k: int
) -> OracleReport:
    """Brute-force leftmost point violating at most k constraints, read
    from `LpOracleTable`.

    Result value encodes the status: witness {"status": "unbounded" |
    "infeasible" | "feasible", ...}.
    """
    if not red or not blue:
        return OracleReport(
            "lp", None, {"status": "unbounded", "reason": "empty-side"}, {}
        )
    table = LpOracleTable(red, blue)
    status, row = table.leftmost_valid(k)
    if status == "unbounded":
        return OracleReport("lp", None, {"status": "unbounded"},
                            {"gaps": len(red) + len(blue) + 1})
    stats = {"vertices": len(table.rows)}
    if row is None:
        return OracleReport("lp", None, {"status": "infeasible"}, stats)
    x, y, m = row
    return OracleReport(
        "lp", None,
        {"status": "feasible", "point": PointR2(x, y), "violations": m}, stats,
    )


def oracle_min_violations(
    red: Sequence[LineR2], blue: Sequence[LineR2]
) -> OracleReport:
    """Exact smallest violation count over all points in the dual plane.

    Evaluates every arrangement vertex, every edge midpoint sample, a sample
    point per far-left/right gap, and reports the minimum.
    """
    if not red or not blue:
        return OracleReport("minmis", 0, {"status": "unbounded",
                                          "reason": "empty-side"}, {})
    best = min(min(_far_gap_counts(red, blue, side)) for side in (-1, 1))
    table = LpOracleTable(red, blue)
    best = min([best] + [count for _, _, count in table.rows])
    # edge midpoints between consecutive crossings along every line
    lines = list(red) + list(blue)
    for l in lines:
        xs = sorted((o.c - l.c) / (l.m - o.m)
                    for o in lines if o is not l and o.m != l.m)
        for a, b in zip(xs, xs[1:]):
            x = (a + b) / 2
            best = min(best, _violations(PointR2(x, l.y_at(x)), red, blue))
    res = oracle_leftmost_valid(red, blue, best)
    return OracleReport("minmis", best, res.witness,
                        {"vertices": len(table.rows)})


def oracle_minmis(pts: Sequence[LabeledPoint]) -> OracleReport:
    """k_min over both orientations for a primal bichromatic point set."""
    reds, blues = split_colors(pts)
    best = None
    for orient in (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE):
        # with BLUE_ABOVE, red dual lines bound lower halfplanes
        if orient is Orientation.BLUE_ABOVE:
            r_lines = [LineR2(p.point.x, -p.point.y) for p in reds]
            b_lines = [LineR2(p.point.x, -p.point.y) for p in blues]
        else:
            r_lines = [LineR2(p.point.x, -p.point.y) for p in blues]
            b_lines = [LineR2(p.point.x, -p.point.y) for p in reds]
        if not r_lines or not b_lines:
            best = (0, orient) if best is None or best[0] > 0 else best
            continue
        rep = oracle_min_violations(r_lines, b_lines)
        if best is None or rep.value < best[0]:
            best = (rep.value, orient)
    if best is None:
        return OracleReport("minmis", 0, None, {})
    return OracleReport("minmis", best[0], {"orientation": best[1]}, {})


# ---------------------------------------------------------------------------
# k-mis MinMax (primal candidate families)
# ---------------------------------------------------------------------------


class KmmCandidateTable:
    """Precomputed evaluation of all candidate separator lines.

    Candidate families:
      a. lines through two input points;
      b. lines parallel to a same-color pair, midway (in signed vertical
         offset) between that pair's line and one other-color point;
      c. lines through one input point, parallel to a same-color pair;
      d. lines through one input point and through the midpoint of a
         red-blue pair.
    Equidistance of points from a common line is a linear condition in the
    line coefficients (the Euclidean normalizer is shared), so every family
    is rational.  Vertical candidates are skipped and counted.
    """

    def __init__(self, pts: Sequence[LabeledPoint], cap: int = 60):
        if len(pts) > cap:
            raise CapExceeded(f"{len(pts)} points exceeds oracle cap {cap}")
        self.pts = list(pts)
        self.skipped_vertical = 0
        self._build()

    def _build(self) -> None:
        pts = self.pts
        n = len(pts)
        # scale to integer coordinates
        denlcm = 1
        for lp in pts:
            for v in (lp.point.x, lp.point.y):
                d = int(rat(v).denominator)
                denlcm = denlcm * d // gcd(denlcm, d)
        PX = [int(rat(lp.point.x) * denlcm) for lp in pts]
        PY = [int(rat(lp.point.y) * denlcm) for lp in pts]
        self._scale = denlcm
        is_red = [lp.color is Color.RED for lp in pts]

        cands: set[tuple[int, int, int]] = set()

        def add(M: int, C: int, D: int) -> None:
            # line y = (M x + C) / D, D != 0 required (non-vertical)
            if D == 0:
                self.skipped_vertical += 1
                return
            if D < 0:
                M, C, D = -M, -C, -D
            g = gcd(gcd(abs(M), abs(C)), D)
            if g > 1:
                M, C, D = M // g, C // g, D // g
            cands.add((M, C, D))

        same_pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if is_red[i] == is_red[j]
        ]
        cross_pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if is_red[i] != is_red[j]
        ]

        # family a: through two points
        for i in range(n):
            for j in range(i + 1, n):
                dx = PX[j] - PX[i]
                dy = PY[j] - PY[i]
                add(dy, PY[i] * dx - dy * PX[i], dx)
        # families b and c: parallel to a same-color pair
        for (i, j) in same_pairs:
            dx = PX[j] - PX[i]
            dy = PY[j] - PY[i]
            if dx == 0:
                self.skipped_vertical += 1
                continue
            off_pair = PY[i] * dx - dy * PX[i]
            for q in range(n):
                off_q = PY[q] * dx - dy * PX[q]
                if is_red[q] != is_red[i]:
                    # b: halfway between the pair line and q (both sign roles
                    # coincide because the bisector is unique)
                    add(2 * dy, off_pair + off_q, 2 * dx)
                # c: through q
                if q != i and q != j:
                    add(dy, off_q, dx)
        # family d: through one point and the midpoint of a red-blue pair
        for (i, j) in cross_pairs:
            mx = PX[i] + PX[j]   # doubled midpoint
            my = PY[i] + PY[j]
            for q in range(n):
                if q == i or q == j:
                    continue
                dx = mx - 2 * PX[q]
                dy = my - 2 * PY[q]
                add(dy, PY[q] * dx - dy * PX[q], dx)

        self.cands = sorted(cands)
        self._evaluate(PX, PY, is_red)

    def _evaluate(self, PX, PY, is_red) -> None:
        cands = self.cands
        if not cands:
            self.table = []
            return
        max_coord = max((max(map(abs, PX), default=0),
                         max(map(abs, PY), default=0)))
        max_M = max(max(abs(m) for m, _, _ in cands),
                    max(d for _, _, d in cands))
        max_C = max(abs(c) for _, c, _ in cands)
        bound = max_coord * max_M * 2 + max_C
        # int64 while every |S| and S*S fits, else exact Python ints
        dtype = np.int64 if bound * bound < 2**62 else object
        M, C, D = (np.array(col, dtype=dtype)[:, None] for col in zip(*cands))
        px = np.array(PX, dtype=dtype)[None, :]
        py = np.array(PY, dtype=dtype)[None, :]
        red = np.array(is_red, dtype=bool)[None, :]
        S = py * D - M * px - C
        above = S > 0
        below = S < 0
        sq = S * S
        rows = []
        for wrong in (
            (above & red) | (below & ~red),   # BLUE_ABOVE
            (below & red) | (above & ~red),   # RED_ABOVE
        ):
            mis = wrong.sum(axis=1)
            msq = np.where(wrong, sq, 0).max(axis=1, initial=0)
            rows.append((mis, msq))
        self.table = [
            (int(rows[0][0][idx]), int(rows[0][1][idx]),
             int(rows[1][0][idx]), int(rows[1][1][idx]), m, c, d)
            for idx, (m, c, d) in enumerate(cands)
        ]

    def query(self, k: int) -> Optional[tuple[RatT, Separator, int]]:
        """Minimum exact max_sq over valid candidates; None when infeasible."""
        best = None  # (num, den, line, orient, mis)
        for misba, sqba, misra, sqra, m, c, d in self.table:
            w = m * m + d * d
            if misba <= k:
                if best is None or sqba * best[1] < best[0] * w:
                    best = (sqba, w, (m, c, d), Orientation.BLUE_ABOVE, misba)
            if misra <= k:
                if best is None or sqra * best[1] < best[0] * w:
                    best = (sqra, w, (m, c, d), Orientation.RED_ABOVE, misra)
        if best is None:
            return None
        num_, den_, (m, c, d), orient, mis = best
        L = self._scale
        max_sq = Rat(num_, den_) / (L * L)
        line = LineR2(Rat(m, d), Rat(c, d * L))
        return max_sq, Separator(line, orient), mis


def oracle_kmm(pts: Sequence[LabeledPoint], k: int, cap: int = 60) -> OracleReport:
    table = KmmCandidateTable(pts, cap=cap)
    res = table.query(k)
    stats = {
        "candidates": len(table.cands),
        "skipped_vertical": table.skipped_vertical,
    }
    if res is None:
        return OracleReport("kmm", None, None, stats)
    max_sq, sep, mis = res
    rep = classify_mis(sep, pts)
    assert rep.mis <= k and rep.max_sq == max_sq, "oracle self-check failed"
    return OracleReport("kmm", max_sq, {"separator": sep, "mis": mis}, stats)


def oracle_1d_table(pts: Sequence[Point1D]):
    """Shared position/value table for several k queries on one point set.

    Positions: every point coordinate, every midpoint of consecutive points,
    probes beyond both extremes, and both orientations' extremal midpoints
    (the MinMax separators, which need not be midpoints of consecutive
    points).  Rows are (mis, value, separator_x, orientation rank), one per
    position and orientation.  The empty set has one row: any separator
    misclassifies nothing, value 0, no position.
    """
    if not pts:
        return [(0, R0, None, 0)]
    xs = sorted(p.x for p in pts)
    positions = list(xs) + [xs[0] - 1, xs[-1] + 1]
    positions += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    reds = sorted(p.x for p in pts if p.color is Color.RED)
    blues = sorted(p.x for p in pts if p.color is Color.BLUE)
    if reds and blues:
        positions.append((reds[-1] + blues[0]) / 2)
        positions.append((blues[-1] + reds[0]) / 2)
    rows = []
    for oi, orient in enumerate((Orient1D.RED_LEFT, Orient1D.BLUE_LEFT)):
        left, right = (reds, blues) if orient is Orient1D.RED_LEFT else (blues, reds)
        for s in positions:
            mis = _count_lt(right, s) + _count_gt(left, s)
            val = R0
            if left and left[-1] > s:
                val = left[-1] - s
            if right and right[0] < s and s - right[0] > val:
                val = s - right[0]
            rows.append((mis, val, s, oi))
    return rows


def oracle_1d_multi(pts: Sequence[Point1D], ks) -> dict:
    """oracle_1d for several k values sharing one scan."""
    rows = oracle_1d_table(pts)
    out = {}
    for k in ks:
        best = None
        for mis, val, s, oi in rows:
            if mis <= k:
                key = (val, s, oi)
                if best is None or key < best:
                    best = key
        # (value, separator_x, orientation rank), or None when infeasible;
        # separator_x is None for the empty set, as in oracle_1d's witness
        out[k] = best
    return out


class LpOracleTable:
    """Per-instance violation counts at every dual vertex, for many k.

    Brute force on integers: each line y = m*x + c is scaled to A*y = B*x +
    C with A the least common denominator of m and c, and every
    non-parallel pair is crossed in homogeneous coordinates (X, Y, W), W >
    0, reduced by their gcd so that each vertex appears once.  One numpy
    pass takes the sign of A*Y - B*X - C*W of every vertex against every
    line: the red lines count where it is positive, the blue ones where it
    is negative.  It runs on int64 when 3 * e**2, e the largest entry of a
    line or vertex, bounds every partial sum below 2**63, else on Python
    ints.  `rows` holds every vertex as (x, y, count) on rationals,
    sorted."""

    def __init__(self, red: Sequence[LineR2], blue: Sequence[LineR2]):
        self.gap_min = min(_far_gap_counts(red, blue, -1))
        lines = []
        for l in list(red) + list(blue):
            m, c = rat(l.m), rat(l.c)
            a = lcm(m.denominator, c.denominator)
            lines.append((a, m.numerator * (a // m.denominator),
                          c.numerator * (a // c.denominator)))
        verts = set()
        for i, (a1, b1, c1) in enumerate(lines):
            for a2, b2, c2 in lines[i + 1:]:
                w = a1 * b2 - a2 * b1
                if w:
                    x, y = a2 * c1 - a1 * c2, c1 * b2 - b1 * c2
                    g = gcd(x, y, w) * (1 if w > 0 else -1)
                    verts.add((x // g, y // g, w // g))
        self.rows = []
        if verts:
            verts = list(verts)
            bound = 3 * max(map(abs, (v for t in lines + verts for v in t))) ** 2
            dtype = np.int64 if bound < 2**63 else object
            a, b, c = (np.array(col, dtype=dtype) for col in zip(*lines))
            x, y, w = (np.array(col, dtype=dtype)[:, None] for col in zip(*verts))
            side = a * y - b * x - c * w
            counts = (np.count_nonzero(side[:, :len(red)] > 0, axis=1)
                      + np.count_nonzero(side[:, len(red):] < 0, axis=1))
            self.rows = sorted((Rat(x, w), Rat(y, w), count) for (x, y, w), count
                               in zip(verts, counts.tolist()))

    def leftmost_valid(self, k: int):
        """('unbounded', None) / ('feasible', (x, y, count)) / ('infeasible', None)."""
        if self.gap_min <= k:
            return "unbounded", None
        for x, y, c in self.rows:
            if c <= k:
                return "feasible", (x, y, c)
        return "infeasible", None
