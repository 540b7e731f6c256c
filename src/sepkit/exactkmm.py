"""Exact k-mis MinMax solver.

Works in the dual plane.  For each orientation the solver builds the red
lower and blue upper envelopes, their vertical midpoint curve (the locus of
per-slope unconstrained optima), and enumerates every candidate optimum:

  a. arrangement vertices with mis <= k,
  b. midpoint-curve vertices with mis <= k,
  c. the first valid point vertically above/below each other curve vertex,
  d. crossings of curve edges with arrangement lines that are valid,
     found once at kmax by one integer pass over every curve piece that
     sorts only the crossings in a piece's own x-range, and skips a piece
     whose count bound already exceeds kmax (scans.segment_valid_crossings).

The approximate solver runs the same enumeration per t-gon wedge,
restricted to the wedge's slope slab (OrientationAnalysis's `slab`).

An analysis stops after the vertex scan when no point with mis <= kmax can
lie in its range, and builds no envelopes, curve or columns.  On the whole
line that is when the scan kept no vertex and the lines are not all
parallel: then every face has a vertex, and a vertex's mis is at most that
of any face or edge it bounds.  In a slab it is when the scan kept no
vertex there and neither wall's column has a height with mis <= kmax: a
face that meets the slab either has a vertex inside it or meets a wall,
and on a wall the least mis is at a line's height.

Unbounded directions are probed separately: each far gap gets a finite probe
point (which can attain the optimum, e.g. for parallel separable inputs) and
an exact limit value; an instance where the limit strictly beats every
attained candidate is flagged rather than silently accepted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .chains import Chain, ChainKind, ChainPiece, Direction, DLine, \
    _interior_point, _primitive, envelope
from .core import (
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    split_colors,
)
from .errors import EmptyColor, check_k
from .rat import R0, R1, Rat, RatT
from .scans import (
    ColumnProfile,
    FarGap,
    FarGaps,
    LineSet,
    far_gaps,
    least_mis,
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
    """The optimum for one k; `best` is None when no separator misclassifies
    at most k points.

    `probe_limit_sq` is the least far-gap limit: a value that near-vertical
    separators approach but do not attain.  When it is below `max_sq`,
    `infinity_probe_wins` is set: then `probe_limit_sq` is the infimum, and
    `best` is an attained witness with at most k misclassified points, not
    the best attained line.
    """

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


def midpoint_curve(env_lo: Chain, env_hi: Chain,
                   slab: Optional[tuple[RatT, RatT]] = None) -> MinMaxCurve:
    """Merge the two envelopes into their vertical midpoint polyline.  With
    a slab (x_lo, x_hi), only each envelope's breakpoints in the closed
    slab and its nearest one on either side are merged: every piece that
    meets the slab is exact there, and pieces wholly outside it may not
    be."""
    bps = [env_lo.breakpoints(), env_hi.breakpoints()]     # each sorted
    if slab is not None:
        bps = [b[max(bisect_left(b, slab[0]) - 1, 0):
                 bisect_right(b, slab[1]) + 1] for b in bps]
    bounds = sorted(set(bps[0]) | set(bps[1]))
    pieces: list[ChainPiece] = []
    prev: Optional[RatT] = None
    for hi in bounds + [None]:
        probe = _interior_point(prev, hi)
        a1, b1, c1 = env_lo.piece_at(probe).line.abc
        a2, b2, c2 = env_hi.piece_at(probe).line.abc
        # the mean of y = b1/a1*x + c1/a1 and y = b2/a2*x + c2/a2
        b, c, a = _primitive(b1 * a2 + b2 * a1, c1 * a2 + c2 * a1, 2 * a1 * a2)
        mid = DLine.of_abc(-1, (a, b, c))
        if pieces and pieces[-1].line.abc == mid.abc:
            pieces[-1] = ChainPiece(mid, pieces[-1].x_lo, hi)
        else:
            pieces.append(ChainPiece(mid, prev, hi))
        prev = hi
    return MinMaxCurve(pieces, [PointR2(p.x_hi, p.line.y_at(p.x_hi))
                                for p in pieces[:-1]])


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
    `below` duals must stay below the separator point, `above` duals above).

    `slab` = (x_lo, x_hi) restricts every candidate family to the dual x in
    x_lo <= x <= x_hi, the separator slopes of one t-gon wedge in its rotated
    frame; None is the whole line.  The vertex scan keeps the vertices with
    mis <= kmax in the slab, and its band filter cuts only the slab, so a
    wedge's rows are the lines that can pass through such a vertex there.
    `empty` says that no point with mis <= kmax lies in the slab (the rule
    of the module docstring; in a slab it reads the wall columns only when
    the scan kept no vertex).  Then `points` yields nothing and nothing
    more is built.  Otherwise the envelopes (over the whole line), the
    curve (merged only around the slab) and the columns of the curve
    vertices in the slab are built at once.  The envelopes and the curve of
    an empty analysis, and the far gaps of any, are built when first read
    (a gap's limit when `far_limit_sq` or the probes read that gap).  One
    LineSet, `lines`, is shared by the scan, the envelopes, the columns,
    the curve walk and the far gaps.
    """

    def __init__(self, below: list[DLine], above: list[DLine], kmax: int,
                 slab: Optional[tuple[RatT, RatT]] = None):
        self.below = below
        self.above = above
        self.kmax = kmax
        self.slab = slab
        self.lines = LineSet(below, above)
        self.scan = scan_vertices(self.lines, kmax, slab)
        self.columns: dict[RatT, ColumnProfile] = {}
        self.empty = self._empty()
        if not self.empty:
            for v in self.curve_vertices:
                self.column(v.x)

    def _empty(self) -> bool:
        """No point with mis <= kmax lies in the slab: the scan kept no
        vertex there, and on the whole line the lines are not all parallel,
        or in a slab neither wall has a height with mis <= kmax."""
        if self.scan.vertices:
            return False
        if self.slab is None:
            return self.lines.extreme(-1) is not None
        return all(self.column(w).min_mis > self.kmax for w in self.slab)

    @cached_property
    def env_lo(self) -> Chain:
        return envelope(self.lines, Direction.LOWER)

    @cached_property
    def env_hi(self) -> Chain:
        return envelope(self.lines, Direction.UPPER)

    @cached_property
    def curve(self) -> MinMaxCurve:
        return midpoint_curve(self.env_lo, self.env_hi, self.slab)

    @cached_property
    def curve_vertices(self) -> list[PointR2]:
        return [v for v in self.curve.vertices if self.in_slab(v.x)]

    def in_slab(self, x: RatT) -> bool:
        return self.slab is None or self.slab[0] <= x <= self.slab[1]

    def column(self, x: RatT) -> ColumnProfile:
        """The column profile at x, built once per x."""
        col = self.columns.get(x)
        if col is None:
            col = self.columns[x] = ColumnProfile(self.lines, x)
        return col

    @cached_property
    def gaps_left(self) -> FarGaps:
        return far_gaps(self.lines, -1)

    @cached_property
    def gaps_right(self) -> FarGaps:
        return far_gaps(self.lines, +1)

    # -- error evaluation --------------------------------------------------

    def max_sq(self, x: RatT, y: RatT) -> RatT:
        e = self.vert_err(x, y)
        return e * e / (x * x + R1)

    # -- candidate families --------------------------------------------------

    def points(
        self, k: int, neighbours: bool = False
    ) -> Iterator[tuple[str, RatT, RatT, int]]:
        """Every candidate in the slab as (family, x, y, mis), families a-d
        of the module docstring.  With `neighbours`, a valid curve vertex
        also brings the nearest valid heights around it (as b or c)."""
        if self.empty:
            return
        for v in self.scan.vertices:
            if v.mis <= k:
                yield "a", v.x, v.y, v.mis
        for v in self.curve_vertices:
            for y, mis in self.columns[v.x].valid_near(v.y, k, neighbours):
                yield ("b" if y == v.y else "c"), v.x, y, mis
        for x, y, mis in self._d_crossings:
            if mis <= k:
                yield "d", x, y, mis

    def candidates(self, k: int) -> list[CandidatePoint]:
        return [
            CandidatePoint(PointR2(x, y), kind, mis, self.max_sq(x, y))
            for kind, x, y, mis in self.points(k)
        ]

    @cached_property
    def _d_crossings(self) -> list[tuple[RatT, RatT, int]]:
        """Family d at kmax, computed when first read: every k <= kmax
        takes the crossings with mis <= k."""
        segments = []
        for p in self.curve.pieces:
            x1, x2 = p.x_lo, p.x_hi
            if self.slab is not None:
                lo, hi = self.slab
                x1 = lo if x1 is None or x1 < lo else x1
                x2 = hi if x2 is None or x2 > hi else x2
                if x1 > x2:
                    continue
            segments.append((p.line, x1, x2))
        return segment_valid_crossings(segments, self.lines, self.kmax)

    def far_limit_sq(self, k: int) -> Optional[RatT]:
        """Best squared limit of the error toward x -> +-infinity over the
        far gaps valid for k (the unattained-optimum bound)."""
        best = None
        for gaps in (self.gaps_left, self.gaps_right):
            for i, mis in enumerate(gaps.mis):
                if mis <= k:
                    lim = gaps[i].limit
                    if best is None or lim * lim < best:
                        best = lim * lim
        return best

    def far_probes(self) -> Iterator[tuple[FarGap, PointR2]]:
        """Each far gap with a probe point strictly inside it, at an x beyond
        every crossing on its side; left gaps first, each side bottom to
        top."""
        for side, gaps in ((-1, self.gaps_left), (1, self.gaps_right)):
            x = self.lines.extreme(side)
            xf = Rat(side) if x is None else x + side
            vals = [l.y_at(xf) for l in gaps.order]
            for i, gap in enumerate(gaps):
                if i == 0:
                    y = vals[0] - 1
                elif i == len(vals):
                    y = vals[-1] + 1
                else:
                    y = (vals[i - 1] + vals[i]) / 2
                yield gap, PointR2(xf, y)

    def zero_band_point(self) -> Optional[PointR2]:
        """A dual point with mis = 0 and zero error inside a far gap.

        Exists only for degenerate inputs with parallel duals (duplicate
        primal x) where the separating band has no arrangement vertex; for
        such inputs the zero optimum would otherwise go unreported.
        """
        for gap, p in self.far_probes():
            if gap.mis == 0 and gap.limit == 0 and self.vert_err(p.x, p.y) == 0:
                return p
        return None


def _analysis_for(pts: Sequence[LabeledPoint], kmax: int) -> OrientationAnalysis:
    """The BLUE_ABOVE analysis (red duals below, blue duals above)."""
    reds, blues = split_colors(pts)
    return OrientationAnalysis(duals(reds), duals(blues), kmax)


class ExactSolver:
    """Shared-analysis exact solver; reusable for every k <= kmax.  The
    scans keep only the vertices with mis <= kmax, so a larger k is refused
    (ValueError) rather than answered from a partial candidate set.

    `k_min` is exact: the least mis over every far gap and every vertex of
    both orientations.  Each analysis's scan keeps the vertices with mis <=
    kmax.  When neither has one, `scans.least_mis` redoes the scans on the
    analyses' line sets with a doubling cap, up to the least far-gap mis,
    below which a vertex would have to lie to matter.
    """

    def __init__(self, pts: Sequence[LabeledPoint], kmax: int):
        check_k(kmax)
        reds, blues = split_colors(pts)
        if not reds or not blues:
            raise EmptyColor("both colors required")
        self.pts = list(pts)
        self.n = len(self.pts)
        self.kmax = kmax = min(kmax, self.n)
        blue_above = _analysis_for(pts, kmax)
        self.analyses = {
            Orientation.BLUE_ABOVE: blue_above,
            Orientation.RED_ABOVE: OrientationAnalysis(
                blue_above.above, blue_above.below, kmax),
        }
        self.k_min = self._k_min()

    def _k_min(self) -> int:
        anas = list(self.analyses.values())
        gap_min = min(min(gaps.mis) for a in anas
                      for gaps in (a.gaps_left, a.gaps_right))
        found = [a.scan.min_vertex_mis for a in anas
                 if a.scan.min_vertex_mis is not None]
        if found:
            return min(found + [gap_min])
        return least_mis([a.lines for a in anas], gap_min, self.kmax)

    def solve(self, k: int) -> ExactSolveReport:
        check_k(k)
        k = min(k, self.n)
        if k > self.kmax:
            raise ValueError(f"k = {k} exceeds this solver's kmax = {self.kmax}")
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
        if best is None and k >= self.k_min:
            # no attained candidate (e.g. all duals parallel: the points
            # share one x), yet some far gap is valid: report the best probe
            # point, flagged below where a gap's limit beats it
            for orient in (Orientation.BLUE_ABOVE, Orientation.RED_ABOVE):
                ana = self.analyses[orient]
                for gap, p in ana.far_probes():
                    if gap.mis <= k:
                        cand = CandidatePoint(p, "probe", gap.mis,
                                              ana.max_sq(p.x, p.y))
                        if best is None or cand.max_sq < best[1].max_sq:
                            best = (None, cand, orient)
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
    return ExactSolver(pts, k).solve(k)

