"""(1+eps)-approximate k-mis MinMax via a regular t-gon convex distance.

The Euclidean distance is replaced by the convex distance induced by a
t-gon inscribed in the unit disk.  Each corner realizes the distance for one
angular wedge of separator directions; rotating that corner straight down
turns the metric into plain vertical distance, so each wedge reduces to an
exact vertical-error optimization over a slope slab in the dual plane.

Rotations are exact: corners are rational points on the unit circle
(tan-half-angle approximations of the ideal corner angles), and the realized
polygon is verified against 1/cos(max half-gap) <= 1+eps by exact rational
comparison.  make_tgon keeps the smallest precision that verifies, so the
corners have small denominators (at most 29 at eps = 1/10), and
rotated_duals computes each rotated dual from integer numerators over the
corner's denominator: on integer points with |coordinate| below 8e5,
every wedge at eps = 1/10 sweeps int64 line columns.  Corners come in
opposite pairs, so one in-frame orientation per corner covers both primal
orientations.

ApproxSolver builds one OrientationAnalysis per wedge, with the wedge's
slope slab as its slab, so each wedge reuses the exact solver's candidate
enumeration (valid arrangement vertices, curve vertices with their nearest
valid heights, valid curve crossings) over that slab.  The vertex scan
runs its band filter on the slab and records only the vertices in it: a
dual vertex is a primal line through two points, and its direction lies
in one wedge, so the t wedges together record about one arrangement's
valid vertices, and each sweeps only the lines that can pass through one
in its slab.  solve(k) takes the best wedge_optimum, which adds the slab
walls and scores by vertical error.  The delta-decision structure
(DeltaContext, decide_delta) answers "is there a valid separator with
vertical error <= delta in this wedge"; the solver does not call it, and
tests check wedge optima against it.  DynApprox keeps a live set under
semi-online updates and re-solves it with ApproxSolver on every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .chains import Chain, ChainPiece, Direction, DLine, \
    chain_decomposition, chain_pair_intersections, envelope
from .core import (
    LabeledPoint,
    LineR2,
    Orientation,
    PointR2,
    Separator,
    classify_mis,
    split_colors,
)
from .errors import EmptyColor, NonPositiveEps, SepkitError, check_k
from .exactkmm import OrientationAnalysis, VerticalError
from .lpviol import PlyStructure, check_schedule, violations_at
from .rat import R0, Rat, RatLike, RatT, rat
from .scans import ColumnProfile, LineSet
# unused here; imported only so perfbench/spans.py can wrap this name
from .scans import segment_valid_crossings  # noqa: F401


class Infeasible(SepkitError):
    """No valid separator exists for the requested k (k < k_min)."""


@dataclass(frozen=True)
class Wedge:
    index: int
    corner: tuple[RatT, RatT]        # rational unit vector
    m_lo: RatT                       # slab of separator slopes in the frame
    m_hi: RatT

    def unrotate(self, p: PointR2) -> PointR2:
        """Map a point of the frame, where this corner points straight down,
        back to the original plane."""
        wx, wy = self.corner
        return PointR2(-wy * p.x - wx * p.y, wx * p.x - wy * p.y)

    def vertical_slope_in_frame(self) -> Optional[RatT]:
        """Frame slope of originally-vertical lines (None if still vertical)."""
        wx, wy = self.corner
        if wx == 0:
            return None
        return -wy / wx


@dataclass(frozen=True)
class TGon:
    t: int                  # smallest t >= 3 with 1/cos(pi/t) <= 1+eps
    eps: RatT
    corners: tuple[tuple[RatT, RatT], ...]
    wedges: tuple[Wedge, ...]


def _circle_point(angle: float, prec: int) -> tuple[RatT, RatT]:
    u = Fraction(math.tan(angle / 2)).limit_denominator(prec)
    den = 1 + u * u
    return rat(Fraction(1 - u * u) / den), rat(Fraction(2 * u) / den)


def _tgon_corners(t_eff: int, prec: int) -> list[tuple[RatT, RatT]]:
    """Rational unit vectors near the corners of the regular t_eff-gon,
    counterclockwise from (0, -1): each tan-half-angle is the nearest
    fraction with denominator <= prec, and the second half mirrors the
    first."""
    half = [_circle_point(-math.pi / 2 + 2 * math.pi * j / t_eff, prec)
            for j in range(t_eff // 2)]
    return half + [(-x, -y) for x, y in half]


def _tgon_verified(corners: list[tuple[RatT, RatT]], eps: RatT) -> bool:
    """The corners advance counterclockwise, and every gap has
    (1 + <w_i, w_{i+1}>)/2 >= 1/(1+eps)^2: then each wedge's metric is
    within 1+eps of the Euclidean one."""
    bound = 1 / ((1 + eps) * (1 + eps))
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        if ax * by - ay * bx <= 0 or 1 + ax * bx + ay * by < 2 * bound:
            return False
    return True


# Tan-half-angle precisions (largest denominator) in the order make_tgon
# tries them: small corners keep the rotated duals' integer forms small.
_PRECISIONS = list(range(1, 100)) + [10**e for e in range(2, 15)]


@lru_cache(maxsize=64)
def make_tgon(eps: RatLike) -> TGon:
    """Regular t-gon machinery for a given eps > 0.

    The reported t follows 1/cos(pi/t) <= 1+eps exactly.  The realized
    corner set is the first that _tgon_verified accepts, taking the even
    refinements of t in turn and, for each, the precisions of _PRECISIONS
    in turn: the smallest precision whose rational corners provably
    satisfy the same bound.  Each eps is built once, and callers share the
    (immutable) result.
    """
    eps = rat(eps)
    if eps <= 0:
        raise NonPositiveEps("eps must be > 0")
    feps = float(eps)
    t = 3
    while 1.0 / math.cos(math.pi / t) > (1.0 + feps) * (1 + 1e-12):
        t += 1
    t_even = t if t % 2 == 0 else t + 1
    for t_eff in range(t_even, t_even + 32, 2):
        for prec in _PRECISIONS:
            corners = _tgon_corners(t_eff, prec)
            if _tgon_verified(corners, eps):
                wedges = []
                for j, w in enumerate(corners):
                    m_lo = _bisector_slope(w, corners[j - 1])
                    m_hi = _bisector_slope(w, corners[(j + 1) % t_eff])
                    if m_lo > m_hi:
                        m_lo, m_hi = m_hi, m_lo
                    wedges.append(Wedge(j, w, m_lo, m_hi))
                return TGon(t, eps, tuple(corners), tuple(wedges))
    raise AssertionError("t-gon construction did not converge")


def _bisector_slope(w: tuple[RatT, RatT], nb: tuple[RatT, RatT]) -> RatT:
    """Slab bound: slope (in w's frame) of separators whose downward normal
    bisects corners w and nb."""
    wx, wy = w
    ux, uy = wx + nb[0], wy + nb[1]
    # rotate the bisector direction into the frame
    fx, fy = -wy * ux + wx * uy, -wx * ux - wy * uy
    return -fx / fy


# ---------------------------------------------------------------------------
# Per-wedge context
# ---------------------------------------------------------------------------


@dataclass
class DeltaContext(VerticalError):
    """Decision-problem data for one wedge in its rotated frame."""

    wedge: Wedge
    k: int
    below: list[DLine]                 # rotated red duals (misclassified below)
    above: list[DLine]                 # rotated blue duals
    red_chains: list[Chain]
    blue_chains: list[Chain]
    red_ply: list[PlyStructure]        # blue ply structure per red chain
    blue_ply: list[PlyStructure]       # red ply structure per blue chain
    env_lo: Chain
    env_hi: Chain
    p_min: Optional[tuple[RatT, RatT, int, RatT]]   # x, y, mis, err

    def in_slab(self, x: RatT) -> bool:
        return self.wedge.m_lo <= x <= self.wedge.m_hi

    def mis_at(self, x: RatT, y: RatT) -> int:
        return violations_at(PointR2(x, y), self.below, self.above)


def rotated_duals(
    pts: Sequence[LabeledPoint], wedge: Wedge
) -> tuple[list[DLine], list[DLine]]:
    """The duals of the points in the wedge's frame, reds (below) then blues
    (above).  With the corner (a, b)/d, the rotation that points it straight
    down maps (x, y) to (-b*x + a*y, -a*x - b*y)/d, whose dual line has
    m = (-b*x + a*y)/d and c = (a*x + b*y)/d: integer numerators over one
    denominator, which give the stored integer form directly; no rational
    is built."""
    wx, wy = wedge.corner
    d = math.lcm(wx.denominator, wy.denominator)
    a, b = (w.numerator * (d // w.denominator) for w in (wx, wy))

    def dual(p: LabeledPoint) -> DLine:
        x, y = p.point.x, p.point.y
        qx, qy = x.denominator, y.denominator
        X, Y = x.numerator * qy, y.numerator * qx   # x = X/(qx*qy), y likewise
        w, m, c = d * qx * qy, a * Y - b * X, a * X + b * Y
        g = math.gcd(w, m, c)
        return DLine.of_abc(p.id, (w // g, m // g, c // g))

    reds, blues = split_colors(pts)
    return [dual(p) for p in reds], [dual(p) for p in blues]


def build_delta_context(
    pts: Sequence[LabeledPoint], k: int, wedge: Wedge
) -> DeltaContext:
    below, above = rotated_duals(pts, wedge)
    if not below or not above:
        raise EmptyColor("both colors required")
    red_chains = chain_decomposition(below, k, Direction.LOWER).chains
    blue_chains = chain_decomposition(above, k, Direction.UPPER).chains
    red_ply = [PlyStructure(c, blue_chains) for c in red_chains]
    blue_ply = [PlyStructure(c, red_chains) for c in blue_chains]
    env_lo = envelope(below, Direction.LOWER)
    env_hi = envelope(above, Direction.UPPER)
    ctx = DeltaContext(
        wedge, k, below, above, red_chains, blue_chains,
        red_ply, blue_ply, env_lo, env_hi, None,
    )
    ctx.p_min = _find_p_min(ctx)
    return ctx


def _find_p_min(ctx: DeltaContext) -> Optional[tuple[RatT, RatT, int, RatT]]:
    """Valid red-blue chain intersection inside the slab with lowest error."""
    best = None
    for i, cr in enumerate(ctx.red_chains):
        for j, cb in enumerate(ctx.blue_chains):
            for X, Y, W in chain_pair_intersections(cr, cb):
                x, y = Rat(X, W), Rat(Y, W)
                if not ctx.in_slab(x):
                    continue
                mis = ctx.red_ply[i].ply(x) + ctx.blue_ply[j].ply(x)
                if mis > ctx.k:
                    continue
                err = ctx.vert_err(x, y)
                key = (err, x, y)
                if best is None or key < best[0]:
                    best = (key, (x, y, mis, err))
    return best[1] if best else None


def _shifted(chain: Chain, delta: RatT, up: bool) -> Chain:
    d = delta if up else -delta
    return Chain(
        chain.kind,
        [ChainPiece(DLine(p.line.id, p.line.m, p.line.c + d), p.x_lo, p.x_hi)
         for p in chain.pieces],
    )


def decide_delta(ctx: DeltaContext, delta: RatT) -> Optional[PointR2]:
    """A valid dual point in the wedge slab with vertical error <= delta, or
    None.  Candidates: p_min, intersections involving the delta-chains, and
    the slab walls (clipping can move the optimum onto a wall)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    cands: list[tuple[RatT, RatT]] = []
    if ctx.p_min is not None:
        x, y, _, err = ctx.p_min
        if err <= delta:
            cands.append((x, y))
    concave_d = _shifted(ctx.env_lo, delta, up=True)     # red envelope + delta
    convex_d = _shifted(ctx.env_hi, delta, up=False)     # blue envelope - delta
    pairs = ([(concave_d, cb) for cb in ctx.blue_chains]
             + [(cr, convex_d) for cr in ctx.red_chains]
             + [(concave_d, convex_d)])
    cands.extend((Rat(X, W), Rat(Y, W)) for cc, cv in pairs
                 for X, Y, W in chain_pair_intersections(cc, cv))
    lines = LineSet(ctx.below, ctx.above)
    for wall in (ctx.wedge.m_lo, ctx.wedge.m_hi):
        col = ColumnProfile(lines, wall)
        cy = (ctx.env_lo.value_at(wall) + ctx.env_hi.value_at(wall)) / 2
        for y in (cy, col.nearest_valid_above(cy, ctx.k),
                  col.nearest_valid_below(cy, ctx.k)):
            if y is not None:
                cands.append((wall, y))
    best = None
    for x, y in cands:
        if not ctx.in_slab(x):
            continue
        err = ctx.vert_err(x, y)
        if err > delta:
            continue
        if ctx.mis_at(x, y) > ctx.k:
            continue
        key = (err, x, y)
        if best is None or key < best[0]:
            best = (key, PointR2(x, y))
    return best[1] if best else None


# ---------------------------------------------------------------------------
# Per-wedge exact optimization (vertical metric over a slope slab)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WedgeSolution:
    delta: RatT
    point: PointR2
    mis: int


def wedge_optimum(
    ana: OrientationAnalysis, wedge: Wedge, k: int
) -> Optional[WedgeSolution]:
    """Exact minimum vertical error over valid separators in the wedge slab.

    `ana` is the wedge's analysis, with the wedge's slope slab as its slab.
    The candidates are its families a-d plus the same column search on the
    two slab walls, where clipping can move the optimum.  Columns also give
    the valid heights next to a valid curve height: across a zero-error band
    the (err, x, y) key prefers the lower one.  Candidates whose separator
    would be vertical in the original frame are skipped (outside the
    solver's domain).
    """
    vskip = wedge.vertical_slope_in_frame()
    cands = [(x, y, mis) for _, x, y, mis in ana.points(k, neighbours=True)]
    for wall in (wedge.m_lo, wedge.m_hi):
        cy = ana.curve.value_at(wall)
        cands += [(wall, y, mis) for y, mis in
                  ana.column(wall).valid_near(cy, k, neighbours=True)]
    best = None
    for x, y, mis in cands:
        if vskip is not None and x == vskip:
            continue
        err = ana.vert_err(x, y)
        key = (err, x, y)
        if best is None or key < best[0]:
            best = (key, PointR2(x, y), mis)
    if best is None:
        return None
    (err, _, _), pt, mis = best
    return WedgeSolution(err, pt, mis)


@dataclass
class ApproxReport:
    separator: Separator
    mis: int
    approx_err: RatT            # t-gon metric value of the reported separator
    euclid_max_sq: RatT
    eps: RatT
    t: int
    wedge: int
    dual_point: PointR2


class ApproxSolver:
    """Shared per-wedge analyses; reusable for every k <= kmax.  Each wedge's
    scan keeps only the vertices with mis <= kmax, so a larger k is refused
    (ValueError) rather than answered from a partial candidate set."""

    def __init__(self, pts: Sequence[LabeledPoint], kmax: int, eps: RatLike):
        check_k(kmax)
        reds, blues = split_colors(pts)
        if not reds or not blues:
            raise EmptyColor("both colors required")
        self.pts = list(pts)
        self.eps = rat(eps)
        self.tgon = make_tgon(eps)
        self.kmax = kmax = min(kmax, len(self.pts))
        self.analyses = [
            OrientationAnalysis(*rotated_duals(pts, w), kmax, (w.m_lo, w.m_hi))
            for w in self.tgon.wedges
        ]

    @property
    def frames(self) -> list[OrientationAnalysis]:
        # read only by perfbench's wedge counter (spans._approx_build_counts)
        return self.analyses

    def solve(self, k: int, tol: RatLike = Rat(1, 10**12)) -> ApproxReport:
        """Best wedge optimum.  Each optimum is exact, so `tol` has no
        effect until a search over delta (ROADMAP, direction 4, step A)
        gives it one."""
        check_k(k)
        k = min(k, len(self.pts))
        if k > self.kmax:
            raise ValueError(f"k = {k} exceeds this solver's kmax = {self.kmax}")
        best = None
        for wedge, ana in zip(self.tgon.wedges, self.analyses):
            sol = wedge_optimum(ana, wedge, k)
            if sol is None:
                continue
            key = (sol.delta, wedge.index)
            if best is None or key < best[0]:
                best = (key, sol, wedge)
        if best is None:
            raise Infeasible(f"no separator misclassifies at most {k} points")
        _, sol, wedge = best
        sep = _unrotate_separator(sol.point, wedge)
        rep = classify_mis(sep, self.pts)
        assert rep.mis <= k, "approx witness exceeds the outlier budget"
        return ApproxReport(
            separator=sep,
            mis=rep.mis,
            approx_err=sol.delta,
            euclid_max_sq=rep.max_sq,
            eps=self.eps,
            t=self.tgon.t,
            wedge=wedge.index,
            dual_point=sol.point,
        )


def _unrotate_separator(dual_pt: PointR2, wedge: Wedge) -> Separator:
    m, c = dual_pt.x, -dual_pt.y
    a = wedge.unrotate(PointR2(R0, c))
    b = wedge.unrotate(PointR2(Rat(1), m + c))
    line = LineR2.through(a, b)
    # in the frame, blues lie above the separator; carry the side back
    probe = wedge.unrotate(PointR2(R0, c + 1))
    above = probe.y - line.y_at(probe.x) > 0
    orient = Orientation.BLUE_ABOVE if above else Orientation.RED_ABOVE
    return Separator(line, orient)


def solve_approx(
    pts: Sequence[LabeledPoint], k: int, eps: RatLike,
    tol: RatLike = Rat(1, 10**12),
) -> ApproxReport:
    """`ApproxSolver(pts, k, eps).solve(k, tol)`; `tol` has no effect."""
    return ApproxSolver(pts, k, eps).solve(k, tol)


# ---------------------------------------------------------------------------
# Semi-online dynamic maintenance
# ---------------------------------------------------------------------------


class DynApprox:
    """(1+eps)-approximate optimal separator under semi-online updates.

    The state is the live points, their promised deletion times and the
    update counter; every report re-solves the live set with ApproxSolver.
    Updates follow the deletion contract of lpviol.check_schedule, and a
    rejected update raises before it changes anything.
    """

    def __init__(
        self,
        pts: Sequence[LabeledPoint],
        k: int,
        eps: RatLike,
        schedule: dict[int, Optional[int]],
    ):
        self.k = k
        self.eps = rat(eps)
        if self.eps <= 0:
            raise NonPositiveEps("eps must be > 0")
        self.live: dict[int, LabeledPoint] = {p.id: p for p in pts}
        self.delete_at = {id_: schedule.get(id_) for id_ in self.live}
        self.u = 0

    def insert(self, p: LabeledPoint, delete_at: Optional[int]) -> ApproxReport:
        check_schedule(self.delete_at, self.u, p.id, inserting=True,
                       due=delete_at)
        self.u += 1
        self.live[p.id] = p
        self.delete_at[p.id] = delete_at
        return self.report()

    def delete(self, id_: int) -> ApproxReport:
        check_schedule(self.delete_at, self.u, id_, inserting=False)
        self.u += 1
        del self.live[id_]
        del self.delete_at[id_]
        return self.report()

    def report(self, k: Optional[int] = None) -> ApproxReport:
        k = self.k if k is None else k
        return ApproxSolver(list(self.live.values()), k, self.eps).solve(k)
