"""Acceptance suite.

Each criterion runs at its stated size and tolerance and prints one
PASS/FAIL line.  Criterion 8 (scaling smoke) logs its ratios and warns
instead of failing, as specified.
"""

import random
import time
import warnings

import pytest

from sepkit.approxkmm import ApproxSolver, DynApprox, Infeasible, solve_approx
from sepkit.chains import DLine
from sepkit.core import Color, LabeledPoint, classify_mis, split_colors, \
    vertical_distance
from sepkit.exactkmm import ExactSolver, minmax_curve
from sepkit.hullmargin import HullPair, StripStatus, convex_hull, hull_distance, \
    max_margin_static
from sepkit.lpviol import ConstraintSet, DynState, LPStatus, \
    static_leftmost_valid, static_min_violations
from sepkit.oracle import KmmCandidateTable, LpOracleTable, oracle_1d_multi
from sepkit.rat import Rat
from sepkit.sep1d import Point1D, Tree1D
from tests.conftest import random_instance, random_separable_instance

KS = list(range(0, 7))
EPSILONS = (Rat(1), Rat(1, 2), Rat(1, 10), Rat(1, 100))
TOL = Rat(1, 10**12)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip(),
          flush=True)
    assert ok, f"{criterion} {detail}"


# ---------------------------------------------------------------------------
# shared instance suite for criteria 1 and 4
# ---------------------------------------------------------------------------


class SuiteEntry:
    def __init__(self, pts):
        self.pts = pts
        self.solver = ExactSolver(pts, max(KS))
        self.exact = {k: self.solver.solve(k) for k in KS}
        self.oracle = KmmCandidateTable(pts)


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(20260809)
    out = []
    for _ in range(200):
        n = rng.randint(4, 40)
        out.append(SuiteEntry(random_instance(rng, n, coord=50)))
    return out


def test_criterion_1_exact_oracle_equivalence(suite):
    t0 = time.perf_counter()
    checked = 0
    for i, entry in enumerate(suite):
        for k in KS:
            got = entry.exact[k]
            want = entry.oracle.query(k)
            if want is None:
                assert got.best is None, (i, k)
            else:
                assert got.max_sq == want[0], (i, k, got.max_sq, want[0])
                rep = classify_mis(got.best, entry.pts)
                assert rep.mis <= k and rep.max_sq == got.max_sq
            checked += 1
    dt = time.perf_counter() - t0
    report("criterion 1",
           checked == 200 * len(KS),
           f"exact == oracle on {checked} (instance, k) pairs in {dt:.1f}s")


def test_criterion_2_1d_dynamic_equivalence():
    rng = random.Random(1111)
    t0 = time.perf_counter()
    updates = 0
    for seq in range(50):
        t = Tree1D()
        live = {}
        next_id = 0
        used = set()
        for step in range(500):
            if live and (len(live) >= 200 or rng.random() < 0.45):
                id_ = rng.choice(list(live))
                t.delete(id_)
                del live[id_]
            else:
                while True:
                    x = Rat(rng.randint(-5000, 5000), rng.randint(1, 4))
                    if x not in used:
                        break
                used.add(x)
                p = Point1D(x, Color.RED if rng.random() < 0.5 else Color.BLUE,
                            next_id)
                t.insert(p)
                live[next_id] = p
                next_id += 1
            updates += 1
            n = len(live)
            want = oracle_1d_multi(list(live.values()), {0, 1, 2, 5, n})
            for k, w in want.items():
                got = t.query(k)
                if w is None:
                    assert got is None, (seq, step, k)
                else:
                    assert got is not None and got.max_dist == w[0], \
                        (seq, step, k)
    dt = time.perf_counter() - t0
    report("criterion 2", True,
           f"50 sequences x 500 updates ({updates} updates, "
           f"k in {{0,1,2,5,n}}) in {dt:.1f}s")


def _random_lp_instance(rng, nmax=60):
    nr = rng.randint(1, nmax // 2)
    nb = rng.randint(1, nmax - nr)
    used = set()

    def mk(i):
        while True:
            m = rng.randint(-900, 900)
            if m not in used:
                used.add(m)
                return DLine(i, Rat(m), Rat(rng.randint(-80, 80)))

    red = [mk(i) for i in range(nr)]
    blue = [mk(1000 + i) for i in range(nb)]
    return red, blue


def _lp_sequence(rng, n0, T):
    used = set()
    nid = [0]

    def new_line():
        while True:
            m = rng.randint(-8000, 8000)
            if m not in used:
                used.add(m)
                i = nid[0]
                nid[0] += 1
                return DLine(i, Rat(m), Rat(rng.randint(-80, 80)))

    pending, schedule = {}, {}

    def assign(id_, now):
        if rng.random() < 0.2:
            return None
        for _ in range(8):
            val = now + rng.randint(1, 40)
            if val <= T and val not in pending:
                pending[val] = id_
                return val
        return None

    red, blue = [], []
    for _ in range(n0):
        l = new_line()
        color = Color.RED if rng.random() < 0.5 else Color.BLUE
        (red if color is Color.RED else blue).append(l)
        schedule[l.id] = assign(l.id, 0)
    ops = []
    for tt in range(1, T + 1):
        if tt in pending:
            ops.append(("delete", pending[tt]))
        else:
            l = new_line()
            color = Color.RED if rng.random() < 0.5 else Color.BLUE
            ops.append(("insert", l, color, assign(l.id, tt)))
    return ConstraintSet(red, blue), schedule, ops


def test_criterion_3_lp_with_violations():
    rng = random.Random(333)
    t0 = time.perf_counter()
    for i in range(200):
        red, blue = _random_lp_instance(rng)
        cs = ConstraintSet(red, blue)
        table = LpOracleTable([l for l in red], [l for l in blue])
        for k in sorted(rng.sample(range(0, 9), 3)):
            got = static_leftmost_valid(cs, k)
            status, row = table.leftmost_valid(k)
            assert got.status.value == status, (i, k)
            if status == "feasible":
                assert (got.point.x, got.point.y, got.violations) == row, (i, k)
        km, _ = static_min_violations(cs)
        want_km = table.gap_min
        if table.rows:
            want_km = min(want_km, min(c for _, _, c in table.rows))
        assert km == want_km, (i, km, want_km)
    static_dt = time.perf_counter() - t0

    t0 = time.perf_counter()
    for seq in range(20):
        k = rng.randint(0, 8)
        cs, schedule, ops = _lp_sequence(rng, n0=rng.randint(4, 14), T=500)
        st = DynState(cs, schedule, k)
        live = {l.id: (l, Color.RED) for l in cs.red}
        live.update({l.id: (l, Color.BLUE) for l in cs.blue})
        for op in ops:
            if op[0] == "insert":
                st.insert(op[1], op[2], op[3])
                live[op[1].id] = (op[1], op[2])
            else:
                st.delete(op[1])
                del live[op[1]]
            red = [l for l, c in live.values() if c is Color.RED]
            blue = [l for l, c in live.values() if c is Color.BLUE]
            want = static_leftmost_valid(ConstraintSet(red, blue), k)
            got = st.query(k)
            assert got.status == want.status, (seq, op)
            if got.status is LPStatus.FEASIBLE:
                assert (got.point.x, got.point.y) == (want.point.x, want.point.y)
                assert got.violations == want.violations
    dyn_dt = time.perf_counter() - t0
    report("criterion 3", True,
           f"static == oracle on 200 instances ({static_dt:.1f}s); "
           f"dynamic == static over 20 x 500 semi-online ops ({dyn_dt:.1f}s)")


def test_criterion_4_approximation_guarantee(suite):
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for i, entry in enumerate(suite):
        for eps in EPSILONS:
            ap = ApproxSolver(entry.pts, max(KS), eps)
            for k in KS:
                want = entry.exact[k]
                try:
                    got = ap.solve(k, TOL)
                except Infeasible:
                    assert want.best is None, (i, k, str(eps))
                    continue
                checked += 1
                assert want.best is not None, (i, k, str(eps))
                ok_mis = got.mis <= k
                bound = (1 + eps) ** 2 * (1 + TOL) ** 2 * want.max_sq
                ok_guarantee = got.euclid_max_sq <= bound
                ok_sandwich = (
                    got.euclid_max_sq <= got.approx_err ** 2
                    <= (1 + eps) ** 2 * got.euclid_max_sq
                )
                if not (ok_mis and ok_guarantee and ok_sandwich):
                    violations += 1
    dt = time.perf_counter() - t0
    report("criterion 4", violations == 0,
           f"{checked} approx reports, eps in {{1, 1/2, 1/10, 1/100}}, "
           f"0 violations expected, got {violations} in {dt:.1f}s")


def _approx_sequence(rng, n0, T):
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

    def assign(p, now):
        if rng.random() < 0.05:
            return None
        for _ in range(8):
            val = now + rng.randint(2, 20)
            if val <= T and val not in pending:
                pending[val] = p.id
                return val
        return None

    for _ in range(n0 - 2):
        p = new_point()
        init.append(p)
        colors[p.id] = p.color
        lc[p.color] += 1
    for p in init:
        schedule[p.id] = assign(p, 0)
    ops = []
    for tt in range(1, T + 1):
        if tt in pending and lc[colors[pending[tt]]] > 1:
            ops.append(("delete", pending[tt]))
            lc[colors[pending[tt]]] -= 1
        else:
            pending.pop(tt, None)
            p = new_point()
            colors[p.id] = p.color
            lc[p.color] += 1
            ops.append(("insert", p, assign(p, tt)))
    return init, schedule, ops


def test_criterion_5_dynamic_approximation():
    rng = random.Random(555)
    t0 = time.perf_counter()
    steps = 0
    for seq in range(10):
        k = rng.randint(2, 5)
        eps = Rat(1)
        init, schedule, ops = _approx_sequence(rng, n0=12, T=300)
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
                want = solve_approx(list(live.values()), k, eps, TOL)
            except Infeasible:
                want = None
            steps += 1
            if got is None or want is None:
                assert got is None and want is None, (seq, op)
            else:
                assert got.approx_err == want.approx_err, (seq, op)
    dt = time.perf_counter() - t0
    report("criterion 5", True,
           f"dyn_approx == solve_approx after every update, "
           f"10 x 300 ops ({steps} steps) in {dt:.1f}s")


def test_criterion_6_max_margin():
    rng = random.Random(666)
    t0 = time.perf_counter()
    for i in range(200):
        pts = random_separable_instance(rng, rng.randint(2, 30))
        res = max_margin_static(pts)
        assert res.status is StripStatus.SEPARABLE, i
        reds = [p.point for p in pts if p.color is Color.RED]
        blues = [p.point for p in pts if p.color is Color.BLUE]
        d, _, _ = hull_distance(convex_hull(reds), convex_hull(blues))
        assert res.width_sq == d, i
        rp, bp = res.witness_points
        if bp.x != rp.x:
            ws = (bp.y - rp.y) / (bp.x - rp.x)
            assert res.separator.line.m * ws == -1, i
        m = res.separator.line.m
        for p in pts:
            v = vertical_distance(p.point, res.separator.line)
            assert v == 0 or 4 * v * v / (m * m + 1) >= res.width_sq, i
    # dynamic equals static over update sequences
    from sepkit.core import PointR2
    from sepkit.errors import VerticalSeparator

    for seq in range(3):
        pair = HullPair()
        live = {}
        nid = 0
        steps = 0
        while steps < 300:
            if live and rng.random() < 0.4:
                id_ = rng.choice(list(live))
                got = pair.delete(id_)
                del live[id_]
            else:
                x = Rat(rng.randint(-300, 300), rng.randint(1, 3))
                y = Rat(rng.randint(-300, 300), rng.randint(1, 3))
                if any((x, y) == (q.point.x, q.point.y) for q in live.values()):
                    continue
                lp = LabeledPoint(
                    PointR2(x, y),
                    Color.RED if rng.random() < 0.5 else Color.BLUE, nid)
                try:
                    got = pair.insert(lp)
                except VerticalSeparator:
                    pair.delete(nid)
                    nid += 1
                    continue
                live[nid] = lp
                nid += 1
            steps += 1
            try:
                want = max_margin_static(list(live.values()))
            except VerticalSeparator:
                continue
            assert got.status == want.status, (seq, steps)
            if got.status is StripStatus.SEPARABLE:
                assert got.width_sq == want.width_sq, (seq, steps)
    dt = time.perf_counter() - t0
    report("criterion 6", True,
           f"200 separable instances + 3 x 300 dynamic ops in {dt:.1f}s")


def test_criterion_7_structural_invariants():
    from sepkit.chains import ChainKind, Direction, chain_decomposition
    from sepkit.exactkmm import duals
    from sepkit.levels import build_leq_k, overlay_and_label
    from sepkit.lpviol import PlyStructure
    from sepkit.approxkmm import Wedge, build_delta_context, decide_delta
    from tests.conftest import random_lines

    rng = random.Random(777)
    probes = 0
    t0 = time.perf_counter()

    def level_of(lines, x, y, direction):
        if direction is Direction.LOWER:
            return sum(1 for l in lines if l.y_at(x) < y)
        return sum(1 for l in lines if l.y_at(x) > y)

    # level soundness + chain coverage/concavity
    for _ in range(20):
        lines = random_lines(rng, rng.randint(3, 16))
        k = rng.randint(0, 5)
        for direction in Direction:
            sub = build_leq_k(lines, k, direction)
            for v in sub.vertices:
                others = [l for l in lines if l.id not in v.line_ids]
                assert level_of(others, v.x, v.y, direction) <= k
                probes += 1
            cs = chain_decomposition(lines, k, direction)
            for c in cs.chains:
                c.check_shape()
                probes += 1
            for e in sub.edges:
                lo = e.x_lo if e.x_lo is not None else (
                    e.x_hi - 1 if e.x_hi is not None else Rat(0))
                hi = e.x_hi if e.x_hi is not None else lo + 2
                xm = (lo + hi) / 2
                assert any(
                    c.piece_at(xm).line.id == e.line.id and
                    c.value_at(xm) == e.line.y_at(xm) for c in cs.chains)
                probes += 1

    # adjacent-face mis delta across line edges
    for _ in range(8):
        red = random_lines(rng, rng.randint(1, 7))
        blue = random_lines(rng, rng.randint(1, 7), first_id=100)
        ov = overlay_and_label(red, blue, rng.randint(0, 3))
        for lo, hi, _edge in ov.adjacent_pairs():
            if lo.in_region and hi.in_region:
                assert abs(lo.mis - hi.mis) == 1
                probes += 1

    # buffer invariant audits + ply spot checks
    from tests.test_lpviol import make_sequence

    cs, schedule, ops = make_sequence(rng, 10, 80)
    st = DynState(cs, schedule, 3)
    for i, op in enumerate(ops):
        if op[0] == "insert":
            st.insert(op[1], op[2], op[3])
        else:
            st.delete(op[1])
        if i % 5 == 0:
            st.forest.audit()
            probes += 1
    for _ in range(10):
        red = random_lines(rng, rng.randint(1, 8))
        blue = random_lines(rng, rng.randint(1, 8), first_id=100)
        k = rng.randint(0, 4)
        rcs = chain_decomposition(red, k, Direction.LOWER).chains
        bcs = chain_decomposition(blue, k, Direction.UPPER).chains
        for cr in rcs:
            ply = PlyStructure(cr, bcs)
            for _ in range(6):
                x = Rat(rng.randint(-60, 60), rng.randint(1, 5))
                direct = sum(1 for cb in bcs if cb.value_at(x) > cr.value_at(x))
                assert ply.ply(x) == direct
                probes += 1

    # MinMax midpoint identity + edge-interior descent
    from sepkit.chains import envelope

    for _ in range(8):
        pts = random_instance(rng, rng.randint(4, 16))
        reds, blues = split_colors(pts)
        mc = minmax_curve(pts)
        env_r = envelope(duals(reds), Direction.LOWER)
        env_b = envelope(duals(blues), Direction.UPPER)
        for _ in range(25):
            x = Rat(rng.randint(-300, 300), rng.randint(1, 5))
            assert 2 * mc.value_at(x) == env_r.value_at(x) + env_b.value_at(x)
            probes += 1
        solver = ExactSolver(pts, len(pts))
        from sepkit.core import Orientation

        ana = solver.analyses[Orientation.BLUE_ABOVE]
        for p in mc.pieces:
            if p.x_lo is None or p.x_hi is None or p.x_lo == p.x_hi:
                continue
            xm = (p.x_lo + p.x_hi) / 2
            mid = ana.max_sq(xm, mc.value_at(xm))
            if mid == 0:
                continue
            h = (p.x_hi - p.x_lo) / 8
            left = ana.max_sq(xm - h, mc.value_at(xm - h))
            right = ana.max_sq(xm + h, mc.value_at(xm + h))
            assert min(left, right) < mid
            probes += 1

    # decision monotonicity in delta
    wide = Wedge(0, (Rat(0), Rat(-1)), Rat(-10), Rat(10))
    for _ in range(10):
        pts = random_instance(rng, rng.randint(4, 12))
        k = rng.randint(0, 3)
        ctx = build_delta_context(pts, k, wide)
        deltas = sorted(Rat(rng.randint(0, 500), rng.randint(1, 5))
                        for _ in range(6))
        prev = None
        for d in deltas:
            got = decide_delta(ctx, d) is not None
            if prev is not None:
                assert got or not prev
                probes += 1
            prev = got

    dt = time.perf_counter() - t0
    report("criterion 7", probes >= 1000,
           f"{probes} randomized structural probes, zero failures, {dt:.1f}s")


def _nearly_separable_int(rng, n, outliers, coord=10**5):
    m = rng.randint(-2, 2)
    pts, ux, uy = [], set(), set()
    while len(pts) < n:
        x = rng.randint(-coord, coord)
        off = rng.randint(max(2, coord // 100), coord)
        blue = rng.random() < 0.5
        y = m * x + (off if blue else -off)
        if x in ux or y in uy:
            continue
        ux.add(x)
        uy.add(y)
        pts.append(LabeledPoint.of(x, y, Color.BLUE if blue else Color.RED,
                                   len(pts)))
    for i in rng.sample(range(n), outliers):
        p = pts[i]
        pts[i] = LabeledPoint(p.point, p.color.other(), p.id)
    return pts


def test_criterion_8_scaling_smoke():
    rng = random.Random(888)
    times = {}
    for (n, k) in ((1000, 8), (2000, 8), (2000, 32)):
        pts = _nearly_separable_int(rng, n, 5)
        t0 = time.perf_counter()
        rep = ExactSolver(pts, k).solve(k)
        times[(n, k)] = time.perf_counter() - t0
        assert rep.best is not None and rep.mis <= k
    ratio_k = times[(2000, 32)] / times[(2000, 8)]
    ratio_n = times[(2000, 8)] / times[(1000, 8)]
    ok_k = ratio_k <= 4.0
    ok_n = ratio_n <= 2.5
    detail = (
        f"n=2000: k=32/k=8 wall ratio {ratio_k:.2f} (target <= 4); "
        f"k=8: n-doubling ratio {ratio_n:.2f} (target ~<= 2.5); "
        f"times {{(n,k): s}} = "
        + ", ".join(f"({n},{k})={t:.2f}s" for (n, k), t in times.items())
    )
    if not (ok_k and ok_n):
        warnings.warn(f"scaling smoke outside target regime: {detail}")
    # logged, not a hard gate
    report("criterion 8", True, detail + (" [WARN]" if not (ok_k and ok_n) else ""))
