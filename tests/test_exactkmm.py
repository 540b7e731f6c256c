import os
import random
import subprocess
import sys
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import sepkit
from sepkit import exactkmm, scans
from sepkit.approxkmm import ApproxSolver, Infeasible, solve_approx, \
    wedge_optimum
from sepkit.core import (
    Color,
    LabeledPoint,
    Orientation,
    PointR2,
    classify_mis,
    split_colors,
)
from sepkit.errors import EmptyColor
from sepkit.exactkmm import (
    KIND_ORDER,
    ExactSolver,
    _analysis_for,
    minmax_curve,
    solve_exact,
)
from sepkit.oracle import KmmCandidateTable, oracle_minmis
from sepkit.rat import Rat
from tests.conftest import random_instance, random_separable_instance, \
    reference_vert_err
from tests.test_scans import whole_line_valid_crossings


def test_minmax_curve_ds3(ds3):
    mc = minmax_curve(ds3)
    assert [(v.x, v.y) for v in mc.vertices] == [(-1, -3), (1, 1)]
    assert (mc.pieces[1].line.m, mc.pieces[1].line.c) == (2, -1)


def test_minmax_curve_single_lines():
    pts = [LabeledPoint.of(1, 0, Color.RED, 0), LabeledPoint.of(3, 2, Color.BLUE, 1)]
    mc = minmax_curve(pts)
    # single-line envelopes: the curve is one line midway, no vertices
    assert len(mc.vertices) == 0 and len(mc.pieces) == 1
    assert (mc.pieces[0].line.m, mc.pieces[0].line.c) == (2, -1)
    with pytest.raises(EmptyColor):
        minmax_curve([LabeledPoint.of(1, 0, Color.RED, 0)])


def test_minmax_curve_mirror_symmetry(ds3):
    mirrored = [LabeledPoint(p.point, p.color.other(), p.id) for p in ds3]
    a = minmax_curve(ds3)
    # swapping colors reflects the curve through y -> -y of the dual of the
    # reflected primal; with this symmetric instance the vertex set is stable
    b = minmax_curve(mirrored)
    assert len(a.vertices) == len(b.vertices)


def test_midpoint_identity(rng):
    from sepkit.chains import Direction, envelope
    from sepkit.exactkmm import duals

    for _ in range(10):
        pts = random_instance(rng, rng.randint(4, 20))
        reds, blues = split_colors(pts)
        mc = minmax_curve(pts)
        env_r = envelope(duals(reds), Direction.LOWER)
        env_b = envelope(duals(blues), Direction.UPPER)
        for _ in range(100):
            x = Rat(rng.randint(-400, 400), rng.randint(1, 7))
            assert 2 * mc.value_at(x) == env_r.value_at(x) + env_b.value_at(x)


def test_solve_examples(ds2, ds3):
    rep = solve_exact(ds3, 4)
    assert rep.max_sq == Rat(1, 2) and rep.mis <= 4
    rep = solve_exact(ds3, 1)
    assert rep.max_sq == 2 and rep.mis == 1 and rep.k_min == 1
    rep = solve_exact(ds3, 0)
    assert rep.best is None and rep.k_min == 1
    rep = solve_exact(ds2, 0)
    assert rep.max_sq == 0 and rep.separable


@dataclass(frozen=True)
class _Candidate:
    location: PointR2
    kind: str
    mis: int
    max_sq: Rat


def _candidates(pts, k, orientation):
    """Every candidate of one orientation with its squared error."""
    ana = ExactSolver(pts, k).analyses[orientation]
    return [_Candidate(PointR2(x, y), kind, mis, ana.max_sq(x, y))
            for kind, x, y, mis in ana.points(k)]


def test_candidate_examples(ds3):
    cs = _candidates(ds3, 4, Orientation.BLUE_ABOVE)
    bs = {(c.location.x, c.location.y) for c in cs if c.kind == "b"}
    assert bs == {(-1, -3), (1, 1)}
    assert all(c.max_sq == Rat(1, 2) for c in cs if c.kind == "b")
    cs = _candidates(ds3, 1, Orientation.BLUE_ABOVE)
    hit = [c for c in cs if c.kind == "a" and (c.location.x, c.location.y) == (1, 0)]
    assert hit and hit[0].mis == 1 and hit[0].max_sq == 2


def test_candidates_separable_zero(ds2):
    cs = _candidates(ds2, 0, Orientation.BLUE_ABOVE)
    assert any(c.max_sq == 0 for c in cs)


def test_oracle_equivalence(rng):
    for trial in range(40):
        pts = random_instance(rng, rng.randint(4, 18), coord=40)
        table = KmmCandidateTable(pts)
        solver = ExactSolver(pts, 6)
        for k in range(0, 7):
            got = solver.solve(k)
            want = table.query(k)
            if want is None:
                assert got.best is None, (trial, k)
            else:
                assert got.max_sq == want[0], (trial, k)
                rep = classify_mis(got.best, pts)
                assert rep.mis <= k and rep.max_sq == got.max_sq


@st.composite
def grid_instances(draw):
    """3-9 distinct points of the grid {-2..2}^2, so repeated x (parallel
    duals) and collinear triples (concurrent duals) are common; each point
    red or blue, so either orientation can be the optimal one."""
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=3, max_size=9, unique=True))
    red = draw(st.lists(st.booleans(), min_size=len(cells),
                        max_size=len(cells)).filter(lambda r: 0 < sum(r) < len(r)))
    return [LabeledPoint.of(x, y, Color.RED if r else Color.BLUE, i)
            for i, ((x, y), r) in enumerate(zip(cells, red))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=grid_instances())
def test_degenerate_grid_matches_oracles(pts):
    solver = ExactSolver(pts, 3)
    assert solver.k_min == oracle_minmis(pts).value
    table = KmmCandidateTable(pts)
    for k in range(4):
        got, want = solver.solve(k), table.query(k)
        assert (got.best is None) == (k < solver.k_min)
        if got.best is not None:
            rep = classify_mis(got.best, pts)
            assert (rep.mis, rep.max_sq) == (got.mis, got.max_sq)
            assert got.mis <= k
        if want is None:
            # the table skips vertical lines, so with every point on one
            # vertical line it has no candidate; the solver's probe is
            # checked above
            assert got.best is None or len({p.point.x for p in pts}) == 1
        elif got.infinity_probe_wins:
            # the infimum is a limit at a vertical separator: no attained
            # value is optimal, and the limit bounds every one of them
            assert got.probe_limit_sq <= want[0]
        else:
            assert got.max_sq == want[0]


def test_solve_multi_consistent(rng):
    pts = random_instance(rng, 16)
    solver = ExactSolver(pts, 4)
    multi = {k: solver.solve(k) for k in range(0, 5)}
    for k, rep in multi.items():
        single = solve_exact(pts, k)
        assert rep.max_sq == single.max_sq


def test_edge_interior_descent(rng):
    # moving along a MinMax edge from an interior point toward one endpoint
    # strictly decreases the Euclidean error (weakly for the vertical metric)
    for _ in range(10):
        pts = random_instance(rng, rng.randint(4, 14))
        mc = minmax_curve(pts)
        solver = ExactSolver(pts, len(pts))
        ana = solver.analyses[Orientation.BLUE_ABOVE]
        probes = 0
        for p in mc.pieces:
            if p.x_lo is None or p.x_hi is None or p.x_lo == p.x_hi:
                continue
            xm = (p.x_lo + p.x_hi) / 2
            if ana.max_sq(xm, mc.value_at(xm)) == 0:
                continue  # inside the separable band the error is flat zero
            h = (p.x_hi - p.x_lo) / 8
            mid = ana.max_sq(xm, mc.value_at(xm))
            left = ana.max_sq(xm - h, mc.value_at(xm - h))
            right = ana.max_sq(xm + h, mc.value_at(xm + h))
            assert min(left, right) < mid
            probes += 1
        if probes:
            return
    pytest.skip("no bounded curve edges with positive error sampled")


def best_at_slope(pts, k, m):
    """Valid dual point on the vertical line x = m minimizing the error
    (vertically nearest to the MinMax curve) in the BLUE_ABOVE orientation,
    with that error; None when the column has no valid point."""
    ana = _analysis_for(pts, k)
    cands = ana.column(m).valid_near(ana.curve.value_at(m), k, neighbours=True)
    if not cands:
        return None
    best, _ = min(cands, key=lambda c: (reference_vert_err(ana, m, c[0]), c[0]))
    return best, reference_vert_err(ana, m, best)


def test_vertical_optimality(rng):
    # the reported best at a fixed slope is the valid point vertically
    # closest to the curve, verified against a column scan
    from sepkit.scans import ColumnProfile

    for _ in range(8):
        pts = random_instance(rng, rng.randint(4, 14))
        k = rng.randint(0, 3)
        ana = _analysis_for(pts, k)
        for _ in range(15):
            m = Rat(rng.randint(-60, 60), rng.randint(1, 5))
            res = best_at_slope(pts, k, m)
            col = ColumnProfile(ana.lines, m)
            cy = ana.curve.value_at(m)
            heights = {l.y_at(m) for l in ana.below + ana.above}
            cands = [h for h in heights if col.mis_at(h) <= k]
            if col.mis_at(cy) <= k:
                cands.append(cy)
            if not cands:
                assert res is None
            else:
                best = min(reference_vert_err(ana, m, y) for y in cands)
                assert res is not None and res[1] == best


def test_kmin_matches_oracle(rng):
    from sepkit.oracle import oracle_minmis

    for _ in range(20):
        pts = random_instance(rng, rng.randint(4, 16))
        assert solve_exact(pts, 0).k_min == oracle_minmis(pts).value


def test_kmin_far_above_zero_and_on_parallel_duals():
    """k_min from a scan capped at kmax = 0: random colours put k_min far
    above 0, so the cap is doubled; shared x makes every dual parallel, so
    only the far gaps count."""
    rng = random.Random(31)
    kmins = []
    for _ in range(12):
        pts = random_instance(rng, rng.randint(14, 24))
        pts = [LabeledPoint(p.point, rng.choice([Color.RED, Color.BLUE]), p.id)
               for p in pts]
        if len({p.color for p in pts}) < 2:
            continue
        solver = ExactSolver(pts, 0)
        assert all(a.scan.min_vertex_mis is None or a.scan.min_vertex_mis == 0
                   for a in solver.analyses.values())
        assert solver.k_min == oracle_minmis(pts).value
        kmins.append(solver.k_min)
    assert max(kmins) >= 4
    for n in (2, 5, 9):
        for _ in range(4):
            colors = [rng.choice([Color.RED, Color.BLUE]) for _ in range(n - 1)]
            pts = [LabeledPoint.of(3, y, c, y) for y, c in
                   enumerate(colors + [Color.BLUE if Color.RED in colors
                                       else Color.RED])]
            rng.shuffle(pts)
            solver = ExactSolver(pts, 0)
            assert all(a.scan.count == 0 for a in solver.analyses.values())
            assert solver.k_min == oracle_minmis(pts).value


def test_solve_beyond_kmax_refused():
    """The scans keep only the vertices with mis <= kmax, so a solver built
    for kmax refuses a larger k (it answered from part of the candidates
    before); k is clamped to n first."""
    pts = random_instance(random.Random(8), 10)
    with pytest.raises(ValueError, match="kmax = 2"):
        ExactSolver(pts, 2).solve(3)
    assert ExactSolver(pts, 50).solve(10**6) == ExactSolver(pts, 10).solve(10)


def test_k_clamped_beyond_n(rng):
    pts = random_instance(rng, 8)
    a = solve_exact(pts, 50)
    b = solve_exact(pts, len(pts))
    assert a.max_sq == b.max_sq


def test_points_on_one_vertical_line():
    # all duals are parallel, so no candidate is attained; k >= k_min must
    # still give a separator, flagged because near-vertical ones do better
    pts = [LabeledPoint.of(0, -1, Color.RED, 0),
           LabeledPoint.of(0, 0, Color.BLUE, 1),
           LabeledPoint.of(0, 1, Color.RED, 2)]
    assert solve_exact(pts, 0).best is None
    rep = solve_exact(pts, 1)
    assert rep.k_min == 1 and rep.mis == 1
    got = classify_mis(rep.best, pts)
    assert (got.mis, got.max_sq) == (rep.mis, rep.max_sq)
    assert rep.infinity_probe_wins and rep.probe_limit_sq == 0


def _grid_points(rng, n, size=3):
    """n distinct points of the grid {-size..size}^2 in both colours."""
    cells = rng.sample([(x, y) for x in range(-size, size + 1)
                        for y in range(-size, size + 1)], n)
    colors = [Color.RED, Color.BLUE] + [rng.choice(list(Color)) for _ in cells[2:]]
    return [LabeledPoint.of(x, y, col, i)
            for i, ((x, y), col) in enumerate(zip(cells, colors))]


def test_shared_solver_matches_fresh_solve_for_every_k():
    """Family d is computed once at kmax and filtered per k: a solver
    built for kmax answers every k <= kmax as a solver built for k does,
    counts included."""
    rng = random.Random(15)
    instances = [random_instance(rng, rng.randint(6, 16), coord=30)
                 for _ in range(10)]
    instances += [_grid_points(rng, rng.randint(6, 16), size=2) for _ in range(10)]
    for pts in instances:
        kmax = rng.randint(2, 5)
        solver = ExactSolver(pts, kmax)
        for k in range(kmax + 1):
            assert solver.solve(k) == solve_exact(pts, k)


def _scaled(pts, f):
    return [LabeledPoint.of(p.point.x * f, p.point.y * f, p.color, p.id)
            for p in pts]


def _identity_inputs():
    """Nearly separable instances, 7x7 grids, points on a few shared x,
    and each of these scaled by 10**12 and by 1/3."""
    rng = random.Random(51)
    base = []
    for _ in range(3):
        pts = random_separable_instance(rng, rng.randint(8, 14))
        for i in rng.sample(range(len(pts)), 2):
            p = pts[i]
            other = Color.BLUE if p.color is Color.RED else Color.RED
            pts[i] = LabeledPoint(p.point, other, p.id)
        base.append(pts)
    base += [_grid_points(rng, rng.randint(8, 16)) for _ in range(3)]
    base += [[LabeledPoint.of(rng.choice((-2, 0, 1, 3)), rng.randint(-9, 9),
                              Color.RED if i % 2 else Color.BLUE, i)
              for i in range(10)] for _ in range(2)]
    return base + [_scaled(pts, f) for pts in base for f in (10**12, Rat(1, 3))]


def _all_reports(pts, kmax):
    exact = ExactSolver(pts, kmax)
    approx = ApproxSolver(pts, kmax, Rat(1, 10))
    out = []
    for k in range(kmax + 1):
        out.append(exact.solve(k))
        try:
            out.append(approx.solve(k))
        except Infeasible:
            out.append(None)
    return out


def test_reports_unchanged_with_the_whole_line_walk():
    """Every ExactSolveReport (its family counts included) and every
    ApproxReport is the same when family d comes from the walk that
    sweeps each curve piece's whole support line."""
    calls = []

    def reference(*args, **kw):
        calls.append(1)
        return whole_line_valid_crossings(*args, **kw)

    found_d = 0
    for pts in _identity_inputs():
        got = _all_reports(pts, 3)
        with mock.patch.object(exactkmm, "segment_valid_crossings", reference):
            assert _all_reports(pts, 3) == got
        found_d += sum(r.counts["d"] for r in got[::2])
    assert calls and found_d


def test_one_build_reads_each_far_order_once(monkeypatch, rng):
    """Each orientation's line set builds its two far orders once: the
    vertex scan, the far gaps and every k_min rescan with a larger cap
    share them, so a build runs four far orders, not one per pass."""
    pts = random_instance(rng, 100, coord=1000)
    orders, caps = [], []
    real_far, real_kept = scans._far_index, scans._kept_blocks

    def far_index(*args):
        orders.append(len(args[0]))
        return real_far(*args)

    def kept_blocks(*args):
        caps.append(args[1])
        return real_kept(*args)

    monkeypatch.setattr(scans, "_far_index", far_index)
    monkeypatch.setattr(scans, "_kept_blocks", kept_blocks)
    solver = ExactSolver(pts, 1)
    assert solver.k_min > 1 and len([c for c in caps if c > 1]) >= 4
    assert orders == [len(pts)] * 4


# The five points red, blue, red, blue, red along a zigzag: every far gap
# misclassifies at least one point.
_ZIGZAG = [(0, 0), (1, 3), (2, 1), (3, 4), (4, 0)]


def _zigzag():
    return [LabeledPoint.of(x, y, Color.BLUE if i % 2 else Color.RED, i)
            for i, (x, y) in enumerate(_ZIGZAG)]


@pytest.mark.parametrize("call", [
    lambda pts: solve_exact(pts, -1),
    lambda pts: ExactSolver(pts, 2).solve(-1),
    lambda pts: solve_approx(pts, -1, Rat(1, 2)),
    lambda pts: ApproxSolver(pts, -1, Rat(1, 2)),
    lambda pts: ApproxSolver(pts, 2, Rat(1, 2)).solve(-1),
], ids=["solve_exact", "ExactSolver.solve", "solve_approx", "ApproxSolver",
        "ApproxSolver.solve"])
def test_negative_k_is_refused(call):
    with pytest.raises(ValueError, match="k must be >= 0"):
        call(_zigzag())


def test_exact_solver_refuses_negative_k_at_once():
    """ExactSolver(pts, -1) raises before any scan.  It runs in a process
    of its own with a time limit, as a k_min search whose cap does not grow
    would never return."""
    code = ("from sepkit.core import Color, LabeledPoint\n"
            "from sepkit.exactkmm import ExactSolver\n"
            "pts = [LabeledPoint.of(x, y, Color.BLUE if i % 2 else Color.RED,"
            f" i) for i, (x, y) in enumerate({_ZIGZAG})]\n"
            "try:\n"
            "    ExactSolver(pts, -1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(sepkit.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "k must be >= 0"


# -- empty analyses ------------------------------------------------------------


@st.composite
def pruning_inputs(draw):
    """A degenerate grid (shared x, so parallel duals, and collinear
    points), in random colours or blue above a line through the grid save
    at most one point, or every point on one vertical; scaled by 1, 1/3 or
    10**12.  Many analyses of the coloured-by-a-line grids are empty."""
    shape = draw(st.sampled_from(["random", "line", "vertical"]))
    if shape == "random":
        pts = draw(grid_instances())
    elif shape == "line":
        cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              min_size=10, max_size=30, unique=True))
        m, c = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        blue = [y > m * x + c or (y == m * x + c and draw(st.booleans()))
                for x, y in cells]
        flip = draw(st.integers(-1, len(cells) - 1))
        if flip >= 0:
            blue[flip] = not blue[flip]
        assume(0 < sum(blue) < len(blue))
        pts = [LabeledPoint.of(x, y, Color.BLUE if b else Color.RED, i)
               for i, ((x, y), b) in enumerate(zip(cells, blue))]
    else:
        ys = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=7,
                           unique=True))
        red = draw(st.lists(st.booleans(), min_size=len(ys), max_size=len(ys))
                   .filter(lambda r: 0 < sum(r) < len(r)))
        pts = [LabeledPoint.of(1, y, Color.RED if r else Color.BLUE, i)
               for i, (y, r) in enumerate(zip(ys, red))]
    return _scaled(pts, draw(st.sampled_from([1, Rat(1, 3), 10**12])))


def _pruning_reports(pts) -> str:
    """repr of the exact reports and of the approximate ones at eps 1 and
    1/10, for k = 0..3."""
    exact = ExactSolver(pts, 3)
    out = [exact.solve(k) for k in range(4)]
    for eps in (Rat(1), Rat(1, 10)):
        approx = ApproxSolver(pts, 3, eps)
        for k in range(4):
            try:
                out.append(approx.solve(k))
            except Infeasible:
                out.append(None)
    return repr(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pts=pruning_inputs())
def test_empty_analyses_change_no_report(pts):
    """An analysis found empty builds no envelopes, curve or columns; every
    report, its counts included, is the one the full build gives."""
    pruned = _pruning_reports(pts)
    with mock.patch.object(exactkmm.OrientationAnalysis, "_empty",
                           lambda self: False):
        assert _pruning_reports(pts) == pruned


def _nearly_separable(seed, n, outliers):
    """n integer points with distinct x and y strictly on either side of a
    line y = m*x, blue above, with `outliers` colours flipped: the shape of
    the benchmark's kmm instances."""
    rng = random.Random(seed)
    m, pts, used_x, used_y = rng.randint(-2, 2), [], set(), set()
    while len(pts) < n:
        x, off = rng.randint(-10**5, 10**5), rng.randint(10**3, 10**5)
        blue = rng.random() < 0.5
        y = m * x + (off if blue else -off)
        if x not in used_x and y not in used_y:
            used_x.add(x)
            used_y.add(y)
            pts.append(LabeledPoint.of(x, y, Color.BLUE if blue else Color.RED,
                                       len(pts)))
    for i in rng.sample(range(n), outliers):
        p = pts[i]
        other = Color.BLUE if p.color is Color.RED else Color.RED
        pts[i] = LabeledPoint(p.point, other, p.id)
    return pts


def test_empty_analyses_build_no_envelopes(monkeypatch):
    """Nearly separable points: no line with reds above misclassifies at
    most kmax of them, and the separating directions lie in one t-gon
    wedge, so only those analyses build their two envelopes."""
    calls = []
    real = exactkmm.envelope

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exactkmm, "envelope", counting)
    solver = ApproxSolver(_nearly_separable(3, 100, 3), 4, Rat(1, 10))
    assert [a.empty for a in solver.analyses].count(False) == 1
    assert len(calls) == 2
    solver.solve(4)
    assert len(calls) == 2
    calls.clear()
    solver = ExactSolver(_nearly_separable(3, 1000, 5), 8)
    assert solver.analyses[Orientation.RED_ABOVE].empty
    assert len(calls) == 2
    assert solver.solve(8).best is not None
    assert len(calls) == 2


# -- integer error pairs -------------------------------------------------------


def _ref_max_sq(ana, x, y):
    e = reference_vert_err(ana, x, y)
    return e * e / (x * x + 1)


@st.composite
def non_dyadic_grids(draw):
    """A degenerate grid (shared x, collinear points) moved off the dyadic
    rationals: scaled by 1/3, 2/7 or 10**12/7 and shifted by a third."""
    pts = draw(grid_instances())
    f = draw(st.sampled_from([Rat(1, 3), Rat(2, 7), Rat(10**12, 7)]))
    sx, sy = draw(st.sampled_from([Rat(0), Rat(1, 3)])), draw(
        st.sampled_from([Rat(0), Rat(-2, 9)]))
    return [LabeledPoint.of(p.point.x * f + sx, p.point.y * f + sy, p.color,
                            p.id) for p in pts]


def _probe_points(ana, k):
    """Every candidate of the analysis; and each envelope breakpoint, the
    midpoint of two adjacent ones and a point beyond either end, with the
    heights of both envelopes, the curve and a third above them."""
    out = [(x, y) for _, x, y, _ in ana.points(k, neighbours=True)]
    for env in (ana.env_lo, ana.env_hi):
        bps = env.breakpoints()
        xs = bps + [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        xs += [bps[0] - Rat(1, 7), bps[-1] + Rat(5, 3)] if bps else [Rat(1, 3)]
        for x in xs:
            for y in (ana.env_lo.value_at(x), ana.env_hi.value_at(x),
                      ana.curve.value_at(x)):
                out += [(x, y), (x, y + Rat(1, 3))]
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pts=non_dyadic_grids())
def test_error_pairs_match_fraction_reference(pts):
    """The integer (num, den) of `vert_err_pair` and `max_sq_pair` equals
    the Fraction error and squared error at every candidate and on every
    envelope breakpoint, in both orientations and in every t-gon wedge;
    `max_sq`, the one Fraction the exact solver builds, reads the same
    pair."""
    analyses = list(ExactSolver(pts, 3).analyses.values())
    analyses += [a for a in ApproxSolver(pts, 3, Rat(1, 2)).analyses
                 if not a.empty]
    checked = 0
    for ana in analyses:
        for x, y in _probe_points(ana, 3):
            num, den = ana.vert_err_pair(x, y)
            assert den > 0 and Rat(num, den) == reference_vert_err(ana, x, y)
            num, den = ana.max_sq_pair(x, y)
            assert den > 0 and Rat(num, den) == _ref_max_sq(ana, x, y)
            assert ana.max_sq(x, y) == Rat(num, den)
            checked += 1
    assert checked


def _ref_exact_best(solver, k):
    """The least (max_sq, x, y, kind, orientation) key over the candidates
    of both orientations, with max_sq a Fraction, as (key, mis,
    orientation)."""
    best = None
    for rank, orient in enumerate((Orientation.BLUE_ABOVE,
                                   Orientation.RED_ABOVE)):
        ana = solver.analyses[orient]
        for kind, x, y, mis in ana.points(k):
            key = (_ref_max_sq(ana, x, y), x, y, KIND_ORDER[kind], rank)
            if best is None or key < best[0]:
                best = (key, mis, orient)
    return best


def _ref_wedge_best(ana, wedge, k):
    """The least (err, x, y) over a wedge's candidates, with err a
    Fraction, as (key, mis)."""
    if ana.empty:
        return None
    cands = [(x, y, mis) for _, x, y, mis in ana.points(k, neighbours=True)]
    for wall in (wedge.m_lo, wedge.m_hi):
        cands += [(wall, y, mis) for y, mis in ana.column(wall).valid_near(
            ana.curve.value_at(wall), k, neighbours=True)]
    vskip = wedge.vertical_slope_in_frame()
    keys = [((reference_vert_err(ana, x, y), x, y), mis) for x, y, mis in cands
            if x != vskip]
    return min(keys, key=lambda t: t[0]) if keys else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pts=st.one_of(grid_instances(), non_dyadic_grids()))
def test_rankings_match_fraction_keys(pts):
    """The integer rankings pick what the Fraction keys pick, ties
    included: on degenerate grids many candidates share an error (a zero
    error band, or one farthest point), and the rest of the key decides."""
    solver = ExactSolver(pts, 3)
    approx = ApproxSolver(pts, 3, Rat(1, 2))
    for k in range(4):
        rep, ref = solver.solve(k), _ref_exact_best(solver, k)
        if ref is not None and not (solver.k_min == 0 and ref[0][0] > 0):
            (max_sq, x, y, _, _), mis, orient = ref
            assert (rep.max_sq, rep.dual_point.x, rep.dual_point.y, rep.mis,
                    rep.orientation) == (max_sq, x, y, mis, orient)
        for wedge, ana in zip(approx.tgon.wedges, approx.analyses):
            got, ref = wedge_optimum(ana, wedge, k), _ref_wedge_best(ana, wedge, k)
            assert (got is None) == (ref is None)
            if got is not None:
                (err, x, y), mis = ref
                assert (got.delta, got.point.x, got.point.y, got.mis) == (
                    err, x, y, mis)


def test_exact_solve_builds_one_fraction_error(monkeypatch):
    """A solve ranks its candidates on integer pairs: on the benchmark's
    kmm-exact shape it reads the Fraction max_sq once, for the winner."""
    calls = []
    real = exactkmm.OrientationAnalysis.max_sq

    def max_sq(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(exactkmm.OrientationAnalysis, "max_sq", max_sq)
    rep = ExactSolver(_nearly_separable(1, 1000, 5), 8).solve(8)
    assert sum(rep.counts.values()) > 1 and rep.best is not None
    assert calls == [(rep.dual_point.x, rep.dual_point.y)]
