"""Exact k-mis MinMax solver.

Works in the dual plane.  For each orientation the solver builds the red
lower and blue upper envelopes, their vertical midpoint curve (the locus of
per-slope unconstrained optima), and enumerates every candidate optimum:

  a. arrangement vertices with mis <= k,
  b. midpoint-curve vertices,
  c. the first valid point vertically above/below each curve vertex,
  d. crossings of curve edges with arrangement lines that are valid.

Unbounded directions are probed separately: each far gap gets a finite probe
point (which can attain the optimum, e.g. for parallel separable inputs) and
an exact limit value; an instance where the limit strictly beats every
attained candidate is flagged rather than silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import Chain, ChainKind, ChainPiece, Direction, DLine, \
    _interior_point, envelope
from .core import (
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    split_colors,
)
from .errors import EmptyColor
from .rat import R0, R1, Rat, RatT
from .scans import (
    ColumnProfile,
    far_gaps,
    scan_vertices,
    segment_valid_crossings,
)

KIND_ORDER = {"a": 0, "b": 1, "c": 2, "d": 3, "probe": 4}


@dataclass(frozen=True)
class CandidatePoint:
    location: PointR2
    kind: str              # 'a' | 'b' | 'c' | 'd'
    mis: int
    max_sq: RatT


@dataclass(frozen=True)
class MinMaxCurve:
    """x-monotone polyline vertically midway between the two envelopes."""

    pieces: list[ChainPiece]
    vertices: list[PointR2]

    def value_at(self, x: RatT) -> RatT:
        return Chain(ChainKind.CONCAVE, self.pieces).value_at(x)


@dataclass
class ExactSolveReport:
    best: Optional[Separator]
    mis: Optional[int]
    max_sq: Optional[RatT]
    k_min: int
    counts: dict
    orientation: Optional[Orientation]
    separable: bool
    dual_point: Optional[PointR2] = None
    infinity_probe_wins: bool = False
    probe_limit_sq: Optional[RatT] = None


def duals(pts: Sequence[LabeledPoint]) -> list[DLine]:
    return [DLine(p.id, p.point.x, -p.point.y) for p in pts]


def midpoint_curve(env_lo: Chain, env_hi: Chain) -> MinMaxCurve:
    """Merge the two envelopes into their vertical midpoint polyline."""
    bounds = sorted(set(env_lo.breakpoints()) | set(env_hi.breakpoints()))
    pieces: list[ChainPiece] = []
    verts: list[PointR2] = []
    prev: Optional[RatT] = None
    for i in range(len(bounds) + 1):
        hi = bounds[i] if i < len(bounds) else None
        probe = _interior_point(prev, hi)
        la = env_lo.piece_at(probe).line
        lb = env_hi.piece_at(probe).line
        mid = DLine(-1, (la.m + lb.m) / 2, (la.c + lb.c) / 2)
        if pieces and pieces[-1].line.m == mid.m and pieces[-1].line.c == mid.c:
            pieces[-1] = ChainPiece(mid, pieces[-1].x_lo, hi)
        else:
            pieces.append(ChainPiece(mid, prev, hi))
        prev = hi
    for p in pieces[:-1]:
        verts.append(PointR2(p.x_hi, p.line.y_at(p.x_hi)))
    return MinMaxCurve(pieces, verts)


def minmax_curve(pts: Sequence[LabeledPoint]) -> MinMaxCurve:
    """MinMax curve for the BLUE_ABOVE orientation (reds below, blues above)."""
    reds, blues = split_colors(pts)
    if not reds or not blues:
        raise EmptyColor("both colors required")
    env_r = envelope(duals(reds), Direction.LOWER)
    env_b = envelope(duals(blues), Direction.UPPER)
    return midpoint_curve(env_r, env_b)


class VerticalError:
    """Vertical error of a dual point against the envelope pair env_lo (of
    the duals that must stay below) and env_hi (of those that must stay
    above): how far the point sits above env_lo or below env_hi."""

    env_lo: Chain
    env_hi: Chain

    def vert_err(self, x: RatT, y: RatT) -> RatT:
        e = R0
        g = y - self.env_lo.value_at(x)
        if g > e:
            e = g
        g = self.env_hi.value_at(x) - y
        if g > e:
            e = g
        return e


class OrientationAnalysis(VerticalError):
    """k-independent scan data for one orientation (roles already assigned:
    `below` duals must stay below the separator point, `above` duals above)."""

    def __init__(self, below: list[DLine], above: list[DLine], kmax: int):
        self.below = below
        self.above = above
        self.kmax = kmax
        self.scan = scan_vertices(below, above, kmax)
        self.env_lo = envelope(below, Direction.LOWER)
        self.env_hi = envelope(above, Direction.UPPER)
        self.curve = midpoint_curve(self.env_lo, self.env_hi)
        self.columns = [
            ColumnProfile(below, above, v.x) for v in self.curve.vertices
        ]
        self.gaps_left = far_gaps(below, above, -1)
        self.gaps_right = far_gaps(below, above, +1)
        self._d_cache: dict[int, list] = {}

    # -- error evaluation --------------------------------------------------

    def max_sq(self, x: RatT, y: RatT) -> RatT:
        e = self.vert_err(x, y)
        return e * e / (x * x + R1)

    # -- candidate families --------------------------------------------------

    def candidates(self, k: int) -> list[CandidatePoint]:
        out: list[CandidatePoint] = []
        for v in self.scan.vertices:
            if v.mis <= k:
                out.append(
                    CandidatePoint(PointR2(v.x, v.y), "a", v.mis,
                                   self.max_sq(v.x, v.y))
                )
        for v, col in zip(self.curve.vertices, self.columns):
            mis_v = col.mis_at(v.y)
            if mis_v <= k:
                out.append(CandidatePoint(v, "b", mis_v, self.max_sq(v.x, v.y)))
            else:
                up = col.nearest_valid_above(v.y, k)
                if up is not None:
                    out.append(
                        CandidatePoint(PointR2(v.x, up), "c", col.mis_at(up),
                                       self.max_sq(v.x, up))
                    )
                dn = col.nearest_valid_below(v.y, k)
                if dn is not None:
                    out.append(
                        CandidatePoint(PointR2(v.x, dn), "c", col.mis_at(dn),
                                       self.max_sq(v.x, dn))
                    )
        for (x, y, mis) in self._d_crossings(k):
            out.append(CandidatePoint(PointR2(x, y), "d", mis, self.max_sq(x, y)))
        return out

    def _d_crossings(self, k: int):
        if k not in self._d_cache:
            res = []
            for p in self.curve.pieces:
                res.extend(
                    segment_valid_crossings(
                        p.line.m, p.line.c, p.x_lo, p.x_hi,
                        self.below, self.above, k,
                    )
                )
            self._d_cache[k] = res
        return self._d_cache[k]

    def far_limit_sq(self, k: int) -> Optional[RatT]:
        """Best squared limit of the error toward x -> +-infinity over the
        far gaps valid for k (the unattained-optimum bound)."""
        best = None
        for gap in self.gaps_left + self.gaps_right:
            if gap.mis <= k:
                lim_sq = gap.limit * gap.limit
                if best is None or lim_sq < best:
                    best = lim_sq
        return best

    def zero_band_point(self) -> Optional[PointR2]:
        """A dual point with mis = 0 and zero error inside a far gap.

        Exists only for degenerate inputs with parallel duals (duplicate
        primal x) where the separating band has no arrangement vertex; for
        such inputs the zero optimum would otherwise go unreported.
        """
        scan = self.scan
        for side, gaps in ((-1, self.gaps_left), (1, self.gaps_right)):
            zero = [i for i, g in enumerate(gaps) if g.mis == 0 and g.limit == 0]
            if not zero:
                continue
            if side < 0:
                xf = (scan.min_cross_x - 1) if scan.min_cross_x is not None else Rat(-1)
                key = lambda l: (-l.m, l.c)
            else:
                xf = (scan.max_cross_x + 1) if scan.max_cross_x is not None else Rat(1)
                key = lambda l: (l.m, l.c)
            lines = sorted(self.below + self.above, key=key)
            vals = [l.y_at(xf) for l in lines]
            for i in zero:
                if i == 0:
                    y = vals[0] - 1
                elif i == len(lines):
                    y = vals[-1] + 1
                else:
                    y = (vals[i - 1] + vals[i]) / 2
                if self.vert_err(xf, y) == 0:
                    return PointR2(xf, y)
        return None

    def k_min(self) -> int:
        best = min(g.mis for g in self.gaps_left)
        best = min(best, min(g.mis for g in self.gaps_right))
        if self.scan.min_vertex_mis is not None:
            best = min(best, self.scan.min_vertex_mis)
        return best


def _analysis_for(
    pts: Sequence[LabeledPoint], orientation: Orientation, kmax: int
) -> OrientationAnalysis:
    reds, blues = split_colors(pts)
    if not reds or not blues:
        raise EmptyColor("both colors required")
    if orientation is Orientation.BLUE_ABOVE:
        below, above = duals(reds), duals(blues)
    else:
        below, above = duals(blues), duals(reds)
    return OrientationAnalysis(below, above, kmax)


class ExactSolver:
    """Shared-analysis exact solver; reusable across several k values."""

    def __init__(self, pts: Sequence[LabeledPoint], kmax: int):
        reds, blues = split_colors(pts)
        if not reds or not blues:
            raise EmptyColor("both colors required")
        self.pts = list(pts)
        self.n = len(self.pts)
        kmax = min(kmax, self.n)
        self.analyses = {
            o: _analysis_for(pts, o, kmax)
            for o in (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE)
        }
        self.k_min = min(a.k_min() for a in self.analyses.values())

    def solve(self, k: int) -> ExactSolveReport:
        k = min(k, self.n)
        counts = {"a": 0, "b": 0, "c": 0, "d": 0}
        best = None   # (max_sq, x, y, kind_rank, orient_rank, mis, orientation)
        best_limit_sq = None
        for rank, orient in enumerate(
            (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE)
        ):
            ana = self.analyses[orient]
            for c in ana.candidates(k):
                counts[c.kind] += 1
                key = (c.max_sq, c.location.x, c.location.y,
                       KIND_ORDER[c.kind], rank)
                if best is None or key < best[0]:
                    best = (key, c, orient)
            # far gaps only bound the unattained infimum; they never compete
            # (for general-position inputs every attained optimum is type a-d)
            lim_sq = ana.far_limit_sq(k)
            if lim_sq is not None and (best_limit_sq is None or lim_sq < best_limit_sq):
                best_limit_sq = lim_sq
        if self.k_min == 0 and (best is None or best[1].max_sq > 0):
            # degenerate separable band without arrangement vertices (parallel
            # duals): the zero optimum lives in a far gap and is exact
            for rank, orient in enumerate(
                (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE)
            ):
                pt = self.analyses[orient].zero_band_point()
                if pt is not None:
                    best = (None, CandidatePoint(pt, "a", 0, R0), orient)
                    break
        if best is None:
            return ExactSolveReport(
                best=None, mis=None, max_sq=None, k_min=self.k_min,
                counts=counts, orientation=None, separable=self.k_min == 0,
            )
        _, cand, orient = best
        line = LineR2(cand.location.x, -cand.location.y)
        probe_wins = (
            best_limit_sq is not None and best_limit_sq < cand.max_sq
        )
        return ExactSolveReport(
            best=Separator(line, orient),
            mis=cand.mis,
            max_sq=cand.max_sq,
            k_min=self.k_min,
            counts=counts,
            orientation=orient,
            separable=self.k_min == 0,
            dual_point=cand.location,
            infinity_probe_wins=probe_wins,
            probe_limit_sq=best_limit_sq,
        )


def solve_exact(pts: Sequence[LabeledPoint], k: int) -> ExactSolveReport:
    """Optimal separator misclassifying at most k points, minimizing the
    squared Euclidean distance to the farthest misclassified point."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return ExactSolver(pts, k).solve(k)


def best_at_slope(
    pts: Sequence[LabeledPoint], k: int, m: RatT, orientation: Orientation
) -> Optional[tuple[RatT, RatT]]:
    """Valid dual point on the vertical line x = m minimizing the error
    (vertically nearest to the MinMax curve); None when the column has no
    valid point.  Used by vertical-optimality checks."""
    ana = _analysis_for(pts, orientation, k)
    col = ColumnProfile(ana.below, ana.above, m)
    cy = ana.curve.value_at(m)
    cands: list[RatT] = []
    if col.mis_at(cy) <= k:
        cands.append(cy)
    up = col.nearest_valid_above(cy, k)
    if up is not None:
        cands.append(up)
    dn = col.nearest_valid_below(cy, k)
    if dn is not None:
        cands.append(dn)
    if not cands:
        return None
    best = min(cands, key=lambda y: (ana.vert_err(m, y), y))
    return best, ana.vert_err(m, best)
