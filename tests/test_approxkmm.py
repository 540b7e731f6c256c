import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sepkit.approxkmm import (
    ApproxSolver,
    DynApprox,
    Infeasible,
    Wedge,
    _tgon_corners,
    _tgon_verified,
    build_delta_context,
    decide_delta,
    make_tgon,
    rotated_duals,
    solve_approx,
    wedge_optimum,
)
from sepkit.chains import DLine
from sepkit.core import Color, LabeledPoint, PointR2, classify_mis
from sepkit.errors import NonPositiveEps, ScheduleViolation, UnknownId
from sepkit.exactkmm import ExactSolver, midpoint_curve
from sepkit.rat import R0, Rat, homogeneous
from tests.conftest import random_instance, random_separable_instance

WIDE = Wedge(0, (Rat(0), Rat(-1)), Rat(-10), Rat(10))


def test_make_tgon_examples():
    assert make_tgon(1).t == 3
    assert make_tgon(Rat(1, 10)).t == 8
    assert make_tgon(10**6).t == 3
    with pytest.raises(NonPositiveEps):
        make_tgon(0)


def test_tgon_exact_bound():
    for eps in (Rat(1), Rat(1, 2), Rat(1, 10), Rat(1, 100)):
        tg = make_tgon(eps)
        bound = 1 / ((1 + eps) * (1 + eps))
        n = len(tg.corners)
        assert n % 2 == 0 and n >= 4
        for j in range(n):
            ax, ay = tg.corners[j]
            bx, by = tg.corners[(j + 1) % n]
            assert ax * ax + ay * ay == 1
            assert ax * by - ay * bx > 0
            assert (1 + ax * bx + ay * by) / 2 >= bound
        # opposite corners are exact mirrors (vertical metric both ways)
        h = n // 2
        for j in range(h):
            assert tg.corners[j + h] == (-tg.corners[j][0], -tg.corners[j][1])


def test_smallest_verified_corners():
    """make_tgon keeps the least integer precision whose corners pass the
    exact check: eps 1 and 1/2 take the axis corners, eps 1/10 corners with
    denominators up to 29."""
    for eps, prec, den in ((Rat(1), 1, 1), (Rat(1, 2), 1, 1),
                           (Rat(1, 10), 5, 29), (Rat(1, 100), 15, 269)):
        tg = make_tgon(eps)
        t_eff = len(tg.corners)
        assert tg.corners == tuple(_tgon_corners(t_eff, prec))
        assert _tgon_verified(tg.corners, eps)
        assert not any(_tgon_verified(_tgon_corners(t_eff, p), eps)
                       for p in range(1, prec))
        assert max(v.denominator for w in tg.corners for v in w) == den


def _rotate(wedge, p):
    """The Fraction rotation that points the wedge's corner straight down."""
    wx, wy = wedge.corner
    return PointR2(-wy * p.x + wx * p.y, -wx * p.x - wy * p.y)


def test_wedge_rotation_roundtrip(rng):
    tg = make_tgon(Rat(1, 10))

    for w in tg.wedges:
        p = PointR2.of(rng.randint(-20, 20), rng.randint(-20, 20))
        assert w.unrotate(_rotate(w, p)) == p
        q = _rotate(w, PointR2.of(*w.corner))
        assert (q.x, q.y) == (0, -1)


def test_rotated_duals_match_fraction_rotation(rng):
    """Line for line the duals of the Fraction rotation, integer forms
    included, on integer and non-integer points."""
    pts = [LabeledPoint(PointR2(Rat(rng.randint(-10**6, 10**6),
                                    rng.choice([1, 1, 3, 7, 10**9])),
                                Rat(rng.randint(-10**6, 10**6),
                                    rng.choice([1, 2, 5]))),
                        rng.choice([Color.RED, Color.BLUE]), i)
           for i in range(40)]
    wedges = [w for eps in (Rat(1), Rat(1, 10), Rat(1, 100))
              for w in make_tgon(eps).wedges]
    wedges.append(Wedge(0, (Rat(3, 5), Rat(-4, 5)), Rat(-1), Rat(1)))
    for w in wedges:
        want = tuple([DLine(p.id, q.x, -q.y) for p in pts
                      if p.color is color for q in [_rotate(w, p.point)]]
                     for color in (Color.RED, Color.BLUE))
        got = rotated_duals(pts, w)
        assert got == want
        for line in got[0] + got[1]:
            assert line.abc == homogeneous(line.m, line.c)


def test_kmm_approx_shape_wedges_run_int64():
    """eps = 1/10 on integer points with |coordinate| <= 3e5, the benchmark
    instance shape: every wedge's integer line columns fit int64."""
    rng = random.Random(5)
    c = 3 * 10**5
    pts = [LabeledPoint.of(x, y, Color.RED if i % 2 else Color.BLUE, i)
           for i, (x, y) in enumerate(
               [(c, c), (-c, c), (c, -c), (-c, -c), (c, 0), (0, -c)]
               + [(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(30)])]
    solver = ApproxSolver(pts, 4, Rat(1, 10))
    assert len(solver.analyses) == 8
    for ana in solver.analyses:
        assert all(col.dtype == np.int64 for col in ana.lines.cols)


def _on_slab(curve, lo, hi):
    """The curve's pieces cut to [lo, hi], as (m, c, x1, x2)."""
    out = []
    for p in curve.pieces:
        x1 = lo if p.x_lo is None or p.x_lo < lo else p.x_lo
        x2 = hi if p.x_hi is None or p.x_hi > hi else p.x_hi
        if x1 <= x2:
            out.append((p.line.m, p.line.c, x1, x2))
    return out


def test_wedge_curve_is_the_whole_curve_on_the_slab(rng):
    """Each wedge merges only the envelope breakpoints near its slab; on
    the slab its curve has the whole curve's pieces and vertices."""
    for _ in range(12):
        pts = random_instance(rng, rng.randint(4, 24))
        solver = ApproxSolver(pts, 3, Rat(1, 10))
        for w, ana in zip(solver.tgon.wedges, solver.analyses):
            whole = midpoint_curve(ana.env_lo, ana.env_hi)
            lo, hi = w.m_lo, w.m_hi
            assert ana.curve_vertices == \
                [v for v in whole.vertices if lo <= v.x <= hi]
            assert _on_slab(ana.curve, lo, hi) == _on_slab(whole, lo, hi)


def test_solve_beyond_kmax_refused():
    """A solver built for kmax keeps only the wedge vertices with mis <=
    kmax, so it refuses a larger k instead of answering from part of the
    candidates; k is clamped to n first."""
    pts = random_instance(random.Random(8), 10)
    solver = ApproxSolver(pts, 0, 1)
    with pytest.raises(ValueError, match="kmax = 0"):
        solver.solve(1)
    assert ApproxSolver(pts, 50, 1).solve(10**6) == \
        ApproxSolver(pts, 10, 1).solve(10)


def test_decide_delta_examples(ds3, ds2):
    ctx = build_delta_context(ds3, 1, WIDE)
    r = decide_delta(ctx, Rat(2))
    assert r is not None and ctx.vert_err(r.x, r.y) <= 2
    assert decide_delta(ctx, Rat(0)) is None
    ctx2 = build_delta_context(ds2, 0, WIDE)
    assert decide_delta(ctx2, Rat(0)) is not None
    # infeasible band: R dual {y=0}, B dual {y=1} comes from x-degenerate
    # primal, so build it from the context machinery directly
    from sepkit.chains import Chain, ChainKind, ChainPiece, DLine
    from sepkit.approxkmm import DeltaContext

    red = [DLine(0, R0, R0)]
    blue = [DLine(1, R0, Rat(1))]
    triv = lambda l, kind: Chain(kind, [ChainPiece(l, None, None)])
    ctx3 = DeltaContext(
        WIDE, 0, red, blue,
        [triv(red[0], ChainKind.CONCAVE)], [triv(blue[0], ChainKind.CONVEX)],
        [], [], triv(red[0], ChainKind.CONCAVE), triv(blue[0], ChainKind.CONVEX),
        None,
    )
    from sepkit.lpviol import PlyStructure

    ctx3.red_ply = [PlyStructure(ctx3.red_chains[0], ctx3.blue_chains)]
    ctx3.blue_ply = [PlyStructure(ctx3.blue_chains[0], ctx3.red_chains)]
    assert decide_delta(ctx3, Rat(49, 100)) is None
    assert decide_delta(ctx3, Rat(100)) is None  # k=0 is infeasible outright


def test_decision_monotone_in_delta(rng):
    for _ in range(8):
        pts = random_instance(rng, rng.randint(4, 12))
        k = rng.randint(0, 3)
        ctx = build_delta_context(pts, k, WIDE)
        deltas = sorted(Rat(rng.randint(0, 400), rng.randint(1, 5))
                        for _ in range(6))
        prev = None
        for d in deltas:
            got = decide_delta(ctx, d) is not None
            if prev is not None:
                assert got or not prev  # Some at d1 implies Some at d2 > d1
            prev = got


def test_solve_wedge_contract(ds3):
    solver = ApproxSolver(ds3, 1, Rat(1, 10))
    hit = False
    for wedge, ana in zip(solver.tgon.wedges, solver.analyses):
        sol = wedge_optimum(ana, wedge, 1)
        if sol is None:
            continue
        hit = True
        ctx = build_delta_context(ds3, 1, wedge)
        # decision contract: Some at delta, None strictly below
        assert decide_delta(ctx, sol.delta) is not None
        lo = sol.delta / (1 + Rat(1, 10**9))
        if lo < sol.delta:
            assert decide_delta(ctx, lo) is None
    assert hit


def test_solve_wedge_separable_zero(ds2):
    solver = ApproxSolver(ds2, 0, 1)
    found = []
    for wedge, ana in zip(solver.tgon.wedges, solver.analyses):
        sol = wedge_optimum(ana, wedge, 0)
        if sol is not None:
            found.append(sol.delta)
    assert found and min(found) == 0


def test_one_column_per_wedge_and_x(monkeypatch, rng):
    from sepkit import approxkmm, exactkmm

    built = []
    real = exactkmm.ColumnProfile

    def counting(lines, x):
        built.append((id(lines), x))
        return real(lines, x)

    monkeypatch.setattr(exactkmm, "ColumnProfile", counting)
    monkeypatch.setattr(approxkmm, "ColumnProfile", counting)
    solver = ApproxSolver(random_instance(rng, 12), 3, Rat(1, 10))
    for k in (3, 2, 3, 0):
        try:
            solver.solve(k)
        except Infeasible:
            pass
    assert built and len(built) == len(set(built))


def test_solve_approx_examples(ds2, ds3):
    rep = solve_approx(ds3, 1, Rat(1, 10))
    assert rep.mis <= 1
    assert float(rep.euclid_max_sq) ** 0.5 <= 1.1 * math.sqrt(2) + 1e-12
    assert rep.euclid_max_sq <= rep.approx_err ** 2 \
        <= (1 + Rat(1, 10)) ** 2 * rep.euclid_max_sq
    assert solve_approx(ds2, 0, 1).euclid_max_sq == 0
    with pytest.raises(Infeasible):
        solve_approx(ds3, 0, 1)


def test_guarantee_random(rng):
    checked = 0
    for _ in range(12):
        pts = random_instance(rng, rng.randint(4, 14))
        ex = ExactSolver(pts, 4)
        for eps in (Rat(1), Rat(1, 2)):
            ap = ApproxSolver(pts, 4, eps)
            for k in range(0, 5):
                want = ex.solve(k)
                try:
                    got = ap.solve(k)
                except Infeasible:
                    assert want.best is None
                    continue
                assert want.best is not None
                assert got.mis <= k
                assert want.max_sq <= got.euclid_max_sq \
                    <= (1 + eps) ** 2 * want.max_sq
                assert got.euclid_max_sq <= got.approx_err ** 2 \
                    <= (1 + eps) ** 2 * got.euclid_max_sq
                checked += 1
    assert checked > 50


TOL = Rat(1, 10**12)


def _degenerate(pts) -> bool:
    """A repeated x (parallel duals) or three collinear points."""
    xy = [(int(p.point.x), int(p.point.y)) for p in pts]
    if len({x for x, _ in xy}) < len(xy):
        return True
    return any((b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
               for a, b, c in itertools.combinations(xy, 3))


@st.composite
def degenerate_instances(draw):
    """2-9 distinct points of a 5 x 7 grid, both colours, degenerate."""
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3)),
                          min_size=2, max_size=9, unique=True))
    reds = draw(st.lists(st.booleans(), min_size=len(cells),
                         max_size=len(cells)))
    reds[0], reds[1] = True, False
    pts = [LabeledPoint.of(x, y, Color.RED if r else Color.BLUE, i)
           for i, ((x, y), r) in enumerate(zip(cells, reds))]
    assume(_degenerate(pts))
    return pts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=degenerate_instances(), eps=st.sampled_from([Rat(1), Rat(1, 10)]))
def test_guarantee_degenerate(pts, eps):
    ex = ExactSolver(pts, 3)
    ap = ApproxSolver(pts, 3, eps)
    for k in range(4):
        want = ex.solve(k)
        try:
            got = ap.solve(k, TOL)
        except Infeasible:
            assert want.best is None
            continue
        assert want.best is not None
        assert got.mis <= k
        # where only near-vertical separators approach the optimum, it is
        # not attained: the exact report flags it and gives the limit
        opt = want.probe_limit_sq if want.infinity_probe_wins else want.max_sq
        assert opt <= got.approx_err ** 2 \
            <= (1 + eps) ** 2 * (1 + TOL) ** 2 * want.max_sq


def test_k_equals_n_matches_minmax(rng):
    pts = random_instance(rng, 10)
    n = len(pts)
    want = ExactSolver(pts, n).solve(n)
    got = solve_approx(pts, n, Rat(1, 2))
    assert want.max_sq <= got.euclid_max_sq <= (1 + Rat(1, 2)) ** 2 * want.max_sq


def _dyn_sequence(rng, n0, T):
    used_x, used_y = set(), set()
    nid = [0]

    def new_point(color=None):
        while True:
            x, y = rng.randint(-3000, 3000), rng.randint(-3000, 3000)
            if x in used_x or y in used_y:
                continue
            used_x.add(x)
            used_y.add(y)
            c = color or (Color.RED if rng.random() < 0.5 else Color.BLUE)
            p = LabeledPoint.of(x, y, c, nid[0])
            nid[0] += 1
            return p

    pending, schedule = {}, {}
    init = [new_point(Color.RED), new_point(Color.BLUE)]
    colors = {p.id: p.color for p in init}
    lc = {Color.RED: 1, Color.BLUE: 1}

    def assign(p, t_now):
        if rng.random() < 0.35:
            return None
        for _ in range(5):
            t = t_now + rng.randint(2, max(3, T // 2))
            if t <= T and t not in pending:
                pending[t] = p.id
                return t
        return None

    for _ in range(n0 - 2):
        p = new_point()
        init.append(p)
        colors[p.id] = p.color
        lc[p.color] += 1
    for p in init:
        schedule[p.id] = assign(p, 0)
    ops = []
    for t in range(1, T + 1):
        if t in pending and lc[colors[pending[t]]] > 1:
            ops.append(("delete", pending[t]))
            lc[colors[pending[t]]] -= 1
        else:
            pending.pop(t, None)
            p = new_point()
            colors[p.id] = p.color
            lc[p.color] += 1
            ops.append(("insert", p, assign(p, t)))
    return init, schedule, ops


def test_dyn_approx_equals_static(rng):
    for seq in range(2):
        k = rng.randint(2, 4)
        eps = Rat(1)
        init, schedule, ops = _dyn_sequence(rng, 10, 40)
        dyn = DynApprox(init, k, eps, schedule)
        live = {p.id: p for p in init}
        for op in ops:
            if op[0] == "insert":
                live[op[1].id] = op[1]
            else:
                del live[op[1]]
            try:
                got = dyn.insert(op[1], op[2]) if op[0] == "insert" \
                    else dyn.delete(op[1])
            except Infeasible:
                got = None
            try:
                want = solve_approx(list(live.values()), k, eps)
            except Infeasible:
                want = None
            if got is None or want is None:
                assert got is None and want is None
            else:
                assert got.approx_err == want.approx_err


def test_dyn_insert_delete_inverse(rng):
    pts = random_instance(rng, 10, coord=1000)
    dyn = DynApprox(pts, 3, 1, {50: 2})
    base = dyn.report()
    dyn.insert(LabeledPoint.of(4444, 5555, Color.RED, 50), 2)
    after = dyn.delete(50)
    assert after.approx_err == base.approx_err
    assert after.euclid_max_sq == base.euclid_max_sq


def test_dyn_approx_schedule_contract(rng):
    pts = random_instance(rng, 10, coord=1000)
    a, b = pts[0].id, pts[1].id          # a is promised at update 3, b never
    dyn = DynApprox(pts, 3, 1, {a: 3})
    base = dyn.report()
    live = dict(dyn.live)
    new = LabeledPoint.of(4444, 5555, Color.RED, 50)
    with pytest.raises(ScheduleViolation):
        dyn.delete(a)                    # update 1, before its promise
    assert dyn.live == live
    assert dyn.report() == base
    with pytest.raises(UnknownId):
        dyn.delete(9999)
    with pytest.raises(UnknownId):
        dyn.insert(pts[2], 5)            # already live
    for due in (0, 1):                   # at or before the insert, update 1
        with pytest.raises(ScheduleViolation):
            dyn.insert(new, due)
    with pytest.raises(ScheduleViolation):
        dyn.delete(b)                    # no promised time
    assert dyn.live == live
    assert dyn.report() == base
    # rejected updates take no number: update 1 inserts, 2 and 3 delete
    dyn.insert(new, 2)
    dyn.delete(new.id)
    assert dyn.delete(a).mis <= 3
    assert set(dyn.live) == set(live) - {a}
