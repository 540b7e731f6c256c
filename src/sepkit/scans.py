"""Exact scan machinery over dual-line arrangements.

Shared by the exact and approximate solvers.  Roles: "below" lines are
violated by a dual point strictly above them, "above" lines by a point
strictly below them, so mis(p) = #below-lines strictly below p plus
#above-lines strictly above p.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import DLine
from .rat import Rat, RatT


@dataclass(frozen=True)
class VertexRecord:
    x: RatT
    y: RatT
    mis: int


@dataclass
class VertexScanResult:
    vertices: list[VertexRecord]     # vertices with mis <= kmax
    min_vertex_mis: Optional[int]    # over all vertices, unfiltered
    min_cross_x: Optional[RatT]
    max_cross_x: Optional[RatT]
    count: int                       # total vertices scanned


def _int_ok(lines: Sequence[DLine]) -> Optional[tuple[list[int], list[int]]]:
    ms, cs = [], []
    for l in lines:
        if l.m.denominator != 1 or l.c.denominator != 1:
            return None
        ms.append(int(l.m))
        cs.append(int(l.c))
    bound = max((max(map(abs, ms), default=0), max(map(abs, cs), default=0)))
    if bound > 10**6:
        return None
    return ms, cs


def scan_vertices(
    below: Sequence[DLine], above: Sequence[DLine], kmax: int
) -> VertexScanResult:
    """All arrangement vertices with mis <= kmax, plus global stats."""
    lines = list(below) + list(above)
    nb = len(below)
    ints = _int_ok(lines)
    if ints is not None and len(lines) > 60:
        return _scan_vertices_int(lines, nb, kmax, *ints)
    return _scan_vertices_rat(lines, nb, kmax)


def _scan_vertices_rat(lines, nb, kmax) -> VertexScanResult:
    n = len(lines)
    out: list[VertexRecord] = []
    min_mis = None
    minx = maxx = None
    count = 0
    for i in range(n):
        li = lines[i]
        events = []
        rb = ba = 0
        for j in range(n):
            if j == i:
                continue
            lj = lines[j]
            if lj.m == li.m:
                if j < nb and lj.c < li.c:
                    rb += 1
                if j >= nb and lj.c > li.c:
                    ba += 1
                continue
            x = (lj.c - li.c) / (li.m - lj.m)
            below_before = lj.m > li.m
            events.append((x, below_before, j))
            if j < nb and below_before:
                rb += 1
            if j >= nb and not below_before:
                ba += 1
        events.sort(key=lambda e: e[0])
        t = 0
        nev = len(events)
        while t < nev:
            x = events[t][0]
            g = t
            while g + 1 < nev and events[g + 1][0] == x:
                g += 1
            grp = events[t:g + 1]
            t = g + 1
            # all group lines pass through the same point on li: exclude the
            # current contribution of every one of them
            if len(grp) == 1:
                _, bb0, j0 = grp[0]
                adj = 1 if ((j0 < nb) == bb0) else 0
            else:
                adj = sum(
                    1 for _, bb, j in grp
                    if (j < nb and bb) or (j >= nb and not bb)
                )
            mis = rb + ba - adj
            for _, below_before, j in grp:
                if j > i:
                    count += 1
                    if min_mis is None or mis < min_mis:
                        min_mis = mis
                    if minx is None or x < minx:
                        minx = x
                    if maxx is None or x > maxx:
                        maxx = x
                    if mis <= kmax:
                        out.append(VertexRecord(x, li.y_at(x), mis))
                if j < nb:
                    rb += -1 if below_before else 1
                else:
                    ba += 1 if below_before else -1
    return VertexScanResult(out, min_mis, minx, maxx, count)


def _scan_vertices_int(lines, nb, kmax, ms, cs) -> VertexScanResult:
    n = len(lines)
    m_arr = np.array(ms, dtype=np.int64)
    c_arr = np.array(cs, dtype=np.int64)
    is_below = np.zeros(n, dtype=bool)
    is_below[:nb] = True
    out: list[VertexRecord] = []
    min_mis = None
    count = 0
    best_minx = best_maxx = None  # (num, den) with den > 0
    for i in range(n):
        mi, ci = ms[i], cs[i]
        dm = mi - m_arr
        mask = dm != 0
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        num = c_arr[idx] - ci
        den = dm[idx]
        flip = den < 0
        num = np.where(flip, -num, num)
        den = np.where(flip, -den, den)
        below_before = m_arr[idx] > mi
        # parallels contribute only to the initial counts
        par = np.nonzero(~mask)[0]
        rb = int(np.sum((c_arr[par] < ci) & is_below[par] & (par != i)))
        ba = int(np.sum((c_arr[par] > ci) & ~is_below[par] & (par != i)))
        rb += int(np.sum(below_before & is_below[idx]))
        ba += int(np.sum(~below_before & ~is_below[idx]))
        # sort events by x = num/den: float order is exact unless floats tie
        key = num.astype(np.float64) / den.astype(np.float64)
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        ties = np.nonzero(key_sorted[1:] == key_sorted[:-1])[0]
        if ties.size:
            order = _refine_ties(order, ties, num, den)
        num_s, den_s = num[order], den[order]
        bb_s = below_before[order]
        isb_s = is_below[idx][order]
        j_s = idx[order]
        rb_delta = np.where(isb_s, np.where(bb_s, -1, 1), 0)
        ba_delta = np.where(~isb_s, np.where(bb_s, 1, -1), 0)
        rb_before = rb + np.concatenate(([0], np.cumsum(rb_delta)[:-1]))
        ba_before = ba + np.concatenate(([0], np.cumsum(ba_delta)[:-1]))
        adj = np.where(isb_s & bb_s, 1, 0) + np.where(~isb_s & ~bb_s, 1, 0)
        mis = rb_before + ba_before - adj
        # concurrent crossings at one point on li: widen the adjustment to
        # cover the whole group (runs of exactly-equal crossing abscissae)
        eq = num_s[1:] * den_s[:-1] == num_s[:-1] * den_s[1:]
        if eq.any():
            t = 0
            while t < len(eq):
                if not eq[t]:
                    t += 1
                    continue
                start = t
                while t < len(eq) and eq[t]:
                    t += 1
                end = t  # group indices start..end inclusive
                g_adj = int(adj[start:end + 1].sum())
                g_mis = int(rb_before[start]) + int(ba_before[start]) - g_adj
                mis[start:end + 1] = g_mis
        rec = j_s > i
        count += int(rec.sum())
        if rec.any():
            mm = int(mis[rec].min())
            if min_mis is None or mm < min_mis:
                min_mis = mm
            lo = int(np.argmax(rec))
            hi = len(rec) - 1 - int(np.argmax(rec[::-1]))
            for t in (lo, hi):
                cand = (int(num_s[t]), int(den_s[t]))
                if best_minx is None or cand[0] * best_minx[1] < best_minx[0] * cand[1]:
                    best_minx = cand
                if best_maxx is None or cand[0] * best_maxx[1] > best_maxx[0] * cand[1]:
                    best_maxx = cand
            sel = np.nonzero(rec & (mis <= kmax))[0]
            li = lines[i]
            for t in sel:
                x = Rat(int(num_s[t]), int(den_s[t]))
                out.append(VertexRecord(x, li.y_at(x), int(mis[t])))
    minx = Rat(*best_minx) if best_minx else None
    maxx = Rat(*best_maxx) if best_maxx else None
    return VertexScanResult(out, min_mis, minx, maxx, count)


def _refine_ties(order, ties, num, den):
    """Exact-sort runs of events whose float keys collide."""
    order = order.copy()
    t = 0
    while t < len(ties):
        start = ties[t]
        end = start + 1
        while t + 1 < len(ties) and ties[t + 1] == end:
            end += 1
            t += 1
        seg = list(order[start : end + 1])
        seg.sort(key=lambda e: Rat(int(num[e]), int(den[e])))
        order[start : end + 1] = seg
        t += 1
    return order


# ---------------------------------------------------------------------------
# Far-gap analysis at x -> +-infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarGap:
    mis: int
    alpha_lo: Optional[RatT]   # slope range of paths staying in the gap
    alpha_hi: Optional[RatT]
    limit: RatT                # lim of vertical-error/|x|, minimized over alpha


def far_order(
    below: Sequence[DLine], above: Sequence[DLine], side: int
) -> list[tuple[DLine, bool]]:
    """(line, is_below) pairs bottom to top beyond every crossing on one side
    (-1 left, +1 right)."""
    tagged = [(l, True) for l in below] + [(l, False) for l in above]
    if side < 0:
        tagged.sort(key=lambda t: (-t[0].m, t[0].c))
    else:
        tagged.sort(key=lambda t: (t[0].m, t[0].c))
    return tagged


def gap_mis(order: Sequence[tuple[DLine, bool]]) -> list[int]:
    """mis of each gap of a bottom-to-top far order, the bottom gap first:
    the below-lines under the gap plus the above-lines over it."""
    mis = sum(1 for _, isb in order if not isb)
    out = [mis]
    for _, isb in order:
        mis += 1 if isb else -1
        out.append(mis)
    return out


def far_gaps(below: Sequence[DLine], above: Sequence[DLine], side: int) -> list[FarGap]:
    """Exact gap structure beyond all crossings on one side (-1 left, +1 right)."""
    tagged = far_order(below, above, side)
    if side < 0:
        m_red = max(l.m for l in below)
        m_blue = min(l.m for l in above)
    else:
        m_red = min(l.m for l in below)
        m_blue = max(l.m for l in above)

    def lim(alpha: RatT) -> RatT:
        if side < 0:
            return max(Rat(0), m_red - alpha, alpha - m_blue)
        return max(Rat(0), alpha - m_red, m_blue - alpha)

    n = len(tagged)
    gaps = []
    for i, mis in enumerate(gap_mis(tagged)):
        lo_line = tagged[i - 1][0] if i > 0 else None
        hi_line = tagged[i][0] if i < n else None
        if side < 0:
            alo = hi_line.m if hi_line else None
            ahi = lo_line.m if lo_line else None
        else:
            alo = lo_line.m if lo_line else None
            ahi = hi_line.m if hi_line else None
        a = (m_red + m_blue) / 2
        if alo is not None and a < alo:
            a = alo
        if ahi is not None and a > ahi:
            a = ahi
        gaps.append(FarGap(mis, alo, ahi, lim(a)))
    return gaps


# ---------------------------------------------------------------------------
# Column profiles (misclassification along a vertical line)
# ---------------------------------------------------------------------------


class ColumnProfile:
    """Sorted line heights at a fixed x with exact on-point mis values.

    Equal heights (concurrent lines) are grouped; the on-point value of a
    group counts below-lines strictly below and above-lines strictly above.
    """

    def __init__(self, below: Sequence[DLine], above: Sequence[DLine], x: RatT):
        self.x = x
        vals: list[tuple[RatT, bool]] = [(l.y_at(x), True) for l in below]
        vals += [(l.y_at(x), False) for l in above]
        vals.sort(key=lambda t: t[0])
        heights: list[RatT] = []
        onpoint: list[int] = []
        interval: list[int] = []    # interval[i] = mis strictly between group i-1 and i
        rb = 0
        ba = sum(1 for _, isb in vals if not isb)
        i = 0
        n = len(vals)
        while i < n:
            j = i
            nb_grp = na_grp = 0
            while j < n and vals[j][0] == vals[i][0]:
                if vals[j][1]:
                    nb_grp += 1
                else:
                    na_grp += 1
                j += 1
            interval.append(rb + ba)
            onpoint.append(rb + (ba - na_grp))
            heights.append(vals[i][0])
            rb += nb_grp
            ba -= na_grp
            i = j
        interval.append(rb + ba)
        self.heights = heights
        self.onpoint = onpoint
        self.interval = interval

    def mis_at(self, y: RatT) -> int:
        i = bisect.bisect_left(self.heights, y)
        if i < len(self.heights) and self.heights[i] == y:
            return self.onpoint[i]
        return self.interval[i]

    def nearest_valid_above(self, y: RatT, k: int) -> Optional[RatT]:
        """Smallest height >= y with on-point mis <= k."""
        i = bisect.bisect_left(self.heights, y)
        while i < len(self.heights):
            if self.onpoint[i] <= k:
                return self.heights[i]
            i += 1
        return None

    def nearest_valid_below(self, y: RatT, k: int) -> Optional[RatT]:
        i = bisect.bisect_right(self.heights, y) - 1
        while i >= 0:
            if self.onpoint[i] <= k:
                return self.heights[i]
            i -= 1
        return None

    def valid_near(
        self, y: RatT, k: int, neighbours: bool
    ) -> list[tuple[RatT, int]]:
        """Valid heights of a vertical search from y, as (height, mis): y
        itself if its mis is <= k, and the nearest valid heights at or above
        and at or below y when y is not valid (or always, with
        `neighbours`)."""
        out = []
        mis = self.mis_at(y)
        if mis <= k:
            out.append((y, mis))
            if not neighbours:
                return out
        for h in (self.nearest_valid_above(y, k),
                  self.nearest_valid_below(y, k)):
            if h is not None:
                out.append((h, self.mis_at(h)))
        return out


# ---------------------------------------------------------------------------
# Walk along a line segment collecting valid crossings
# ---------------------------------------------------------------------------


def segment_valid_crossings(
    m_e: RatT,
    c_e: RatT,
    x1: Optional[RatT],
    x2: Optional[RatT],
    below: Sequence[DLine],
    above: Sequence[DLine],
    k: int,
) -> list[tuple[RatT, RatT, int]]:
    """Crossing points of y = m_e*x + c_e (restricted to [x1, x2]) with any
    input line, whose exact on-point mis is <= k.  Returns (x, y, mis)."""
    events = []
    tagged = [(l, True) for l in below] + [(l, False) for l in above]
    for l, isb in tagged:
        if l.m == m_e:
            continue
        x = (l.c - c_e) / (m_e - l.m)
        events.append((x, l, isb))
    if not events:
        return []
    events.sort(key=lambda e: e[0])
    # counts evolve along the full support line; start left of every event
    probe_x = events[0][0] - 1
    rb = ba = 0
    y_probe = m_e * probe_x + c_e
    for l, isb in tagged:
        v = l.y_at(probe_x)
        if isb and v < y_probe:
            rb += 1
        if not isb and v > y_probe:
            ba += 1
    out = []
    i = 0
    n = len(events)
    while i < n:
        j = i
        x = events[i][0]
        # group concurrent crossings at the same x
        adj = 0
        deltas_rb = deltas_ba = 0
        while j < n and events[j][0] == x:
            _, l, isb = events[j]
            below_before = l.m > m_e
            if isb:
                if below_before:
                    adj += 1
                deltas_rb += -1 if below_before else 1
            else:
                if not below_before:
                    adj += 1
                deltas_ba += 1 if below_before else -1
            j += 1
        mis = rb + ba - adj
        in_range = (x1 is None or x >= x1) and (x2 is None or x <= x2)
        if mis <= k and in_range:
            out.append((x, m_e * x + c_e, mis))
        rb += deltas_rb
        ba += deltas_ba
        i = j
    return out
