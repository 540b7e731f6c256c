"""<=k-levels of line sets and the labeled overlay of a red lower level with
a blue upper level.

The level subdivision is built by scanning every line's crossings in x-order
and tracking how many lines lie strictly below (resp. above).  The overlay is
materialized as a vertical-slab complex clipped to a bounding box: walls
through every vertex guarantee hole-free convex cells, per-cell
misclassification counts are exact (sampled per slab column), and true faces
are recovered by merging cells across walls.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import Direction, DLine, cross_x
from .errors import EmptyInput
from .rat import R0, Rat, RatT
from .scans import crossings, line_columns


@dataclass(frozen=True)
class LevelEdge:
    line: DLine
    x_lo: Optional[RatT]   # None = -infinity
    x_hi: Optional[RatT]   # None = +infinity
    level: int             # lines strictly on the defining side of the interior


@dataclass(frozen=True)
class LevelVertex:
    x: RatT
    y: RatT
    level: int
    line_ids: tuple[int, int]


@dataclass
class LevelSubdivision:
    lines: list[DLine]
    k: int
    direction: Direction
    edges: list[LevelEdge]
    vertices: list[LevelVertex]


def build_leq_k(
    lines: Sequence[DLine], k: int, direction: Direction
) -> LevelSubdivision:
    """Exact <=k-level subdivision of a line set."""
    if not lines:
        raise EmptyInput("level of empty line set")
    if k < 0:
        raise ValueError("k must be >= 0")
    if direction is Direction.UPPER:
        low = build_leq_k([l.neg() for l in lines], k, Direction.LOWER)
        return LevelSubdivision(
            list(lines),
            k,
            Direction.UPPER,
            [
                LevelEdge(e.line.neg(), e.x_lo, e.x_hi, e.level)
                for e in low.edges
            ],
            [LevelVertex(v.x, -v.y, v.level, v.line_ids) for v in low.vertices],
        )
    lines = list(lines)
    n = len(lines)
    edges: list[LevelEdge] = []
    verts: list[LevelVertex] = []
    a, b, c = line_columns(lines)
    counted = np.ones(n, dtype=bool)      # a level counts the lines below
    for i, li in enumerate(lines):
        cr = crossings((a[i], b[i], c[i]), a, b, c, counted)
        # an edge ends at each crossing, unless the previous one is at the
        # same x; a vertex is a crossing with a later line
        edge_end = (cr.before <= k) & ~cr.same
        vlevel = cr.before - cr.adj
        vert = (vlevel <= k) & (cr.idx > i)
        for t in np.flatnonzero(edge_end | vert):
            x = cr.x(t)
            if edge_end[t]:
                edges.append(LevelEdge(li, cr.x(t - 1) if t else None, x,
                                       int(cr.before[t])))
            if vert[t]:
                verts.append(LevelVertex(x, li.y_at(x), int(vlevel[t]),
                                         (li.id, lines[cr.idx[t]].id)))
        if cr.end() <= k:
            last = cr.x(len(cr.idx) - 1) if len(cr.idx) else None
            edges.append(LevelEdge(li, last, None, cr.end()))
    return LevelSubdivision(lines, k, Direction.LOWER, edges, verts)


# ---------------------------------------------------------------------------
# Overlay of L_{<=k}(R*) and L'_{<=k}(B*), labeled with misclassifications
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    slab: int
    idx: int
    x_lo: RatT
    x_hi: RatT
    lo_edge: Optional[LevelEdge]   # None = box bottom
    hi_edge: Optional[LevelEdge]   # None = box top
    red_below: int
    blue_above: int
    mis: int
    in_red_region: bool
    in_blue_region: bool
    valid: bool
    touches_box: bool
    region: int = -1

    @property
    def in_region(self) -> bool:
        return self.in_red_region and self.in_blue_region


@dataclass
class OverlayFaceMap:
    k: int
    red_lines: list[DLine]
    blue_lines: list[DLine]
    walls: list[RatT]                       # slab boundaries, ascending
    box: tuple[RatT, RatT, RatT, RatT]      # xlo, xhi, ylo, yhi
    slabs: list[list[LevelEdge]]            # edges per slab, bottom to top
    cells: list[list[Cell]]                 # per slab, bottom to top
    valid_region_count: int

    def adjacent_pairs(self):
        """Yield (lower_cell, upper_cell, edge) for every in-slab edge."""
        for s, col in enumerate(self.cells):
            for lo, hi in zip(col, col[1:]):
                yield lo, hi, hi.lo_edge


def _edge_covers(e: LevelEdge, a: RatT, b: RatT) -> bool:
    return (e.x_lo is None or e.x_lo <= a) and (e.x_hi is None or e.x_hi >= b)


def overlay_and_label(
    red_lines: Sequence[DLine],
    blue_lines: Sequence[DLine],
    k: int,
) -> OverlayFaceMap:
    """Overlay the red lower and blue upper <=k-levels and label every cell
    with its exact misclassification count (red lines strictly below plus
    blue lines strictly above)."""
    if not red_lines or not blue_lines:
        raise EmptyInput("overlay requires both colors")
    lvl_r = build_leq_k(red_lines, k, Direction.LOWER)
    lvl_b = build_leq_k(blue_lines, k, Direction.UPPER)

    feat_x: list[RatT] = [v.x for v in lvl_r.vertices] + [v.x for v in lvl_b.vertices]
    feat_y: list[RatT] = [v.y for v in lvl_r.vertices] + [v.y for v in lvl_b.vertices]
    for er in lvl_r.edges:
        for eb in lvl_b.edges:
            x = cross_x(er.line, eb.line)
            if x is None:
                continue
            if (er.x_lo is None or x >= er.x_lo) and (er.x_hi is None or x <= er.x_hi) \
                    and (eb.x_lo is None or x >= eb.x_lo) \
                    and (eb.x_hi is None or x <= eb.x_hi):
                feat_x.append(x)
                feat_y.append(er.line.y_at(x))

    if feat_x:
        x_min, x_max = min(feat_x), max(feat_x)
    else:
        x_min = x_max = R0
    span_x = x_max - x_min
    pad_x = span_x if span_x > 0 else Rat(1)
    xlo, xhi = x_min - pad_x, x_max + pad_x

    all_lines = list(red_lines) + list(blue_lines)
    y_ends = [l.y_at(xlo) for l in all_lines] + [l.y_at(xhi) for l in all_lines]
    y_min = min(y_ends + feat_y)
    y_max = max(y_ends + feat_y)
    span_y = y_max - y_min
    pad_y = span_y if span_y > 0 else Rat(1)
    ylo, yhi = y_min - pad_y, y_max + pad_y

    walls = sorted({x for x in feat_x if xlo < x < xhi} | {xlo, xhi})
    red_edges = lvl_r.edges
    blue_edges = lvl_b.edges
    red_vals = None

    slabs: list[list[LevelEdge]] = []
    cells: list[list[Cell]] = []
    is_red_edge: dict[int, bool] = {}
    for s in range(len(walls) - 1):
        a, b = walls[s], walls[s + 1]
        mid = (a + b) / 2
        present: list[tuple[RatT, LevelEdge, bool]] = []
        for e in red_edges:
            if _edge_covers(e, a, b):
                present.append((e.line.y_at(mid), e, True))
        for e in blue_edges:
            if _edge_covers(e, a, b):
                present.append((e.line.y_at(mid), e, False))
        present.sort(key=lambda t: t[0])
        slab_edges = [e for _, e, _ in present]
        slabs.append(slab_edges)
        # exact per-cell counts from the full sorted column at mid
        rv = sorted(l.y_at(mid) for l in red_lines)
        bv = sorted(l.y_at(mid) for l in blue_lines)
        col: list[Cell] = []
        nred, nblue = len(red_lines), len(blue_lines)
        for idx in range(len(present) + 1):
            low_v = present[idx - 1][0] if idx > 0 else ylo
            high_v = present[idx][0] if idx < len(present) else yhi
            ys = (low_v + high_v) / 2
            rb = bisect.bisect_left(rv, ys)
            ba = nblue - bisect.bisect_right(bv, ys)
            touches = (
                s == 0 or s == len(walls) - 2 or idx == 0 or idx == len(present)
            )
            col.append(
                Cell(
                    slab=s,
                    idx=idx,
                    x_lo=a,
                    x_hi=b,
                    lo_edge=present[idx - 1][1] if idx > 0 else None,
                    hi_edge=present[idx][1] if idx < len(present) else None,
                    red_below=rb,
                    blue_above=ba,
                    mis=rb + ba,
                    in_red_region=rb <= k,
                    in_blue_region=ba <= k,
                    valid=rb + ba <= k,
                    touches_box=touches,
                )
            )
        cells.append(col)

    region_count = _merge_valid_regions(walls, cells)
    return OverlayFaceMap(
        k=k,
        red_lines=list(red_lines),
        blue_lines=list(blue_lines),
        walls=walls,
        box=(xlo, xhi, ylo, yhi),
        slabs=slabs,
        cells=cells,
        valid_region_count=region_count,
    )


def _merge_valid_regions(walls: list[RatT], cells: list[list[Cell]]) -> int:
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for s, col in enumerate(cells):
        for c in col:
            if c.valid:
                parent[(s, c.idx)] = (s, c.idx)
    for s, col in enumerate(cells):
        for lo, hi in zip(col, col[1:]):
            if lo.valid and hi.valid:
                union((s, lo.idx), (s, hi.idx))
    # across walls: strictly overlapping vertical intervals at the shared wall
    for s in range(len(cells) - 1):
        w = walls[s + 1]
        left, right = cells[s], cells[s + 1]

        def interval(c: Cell):
            lo = c.lo_edge.line.y_at(w) if c.lo_edge else None
            hi = c.hi_edge.line.y_at(w) if c.hi_edge else None
            return lo, hi

        for cl in left:
            if not cl.valid:
                continue
            llo, lhi = interval(cl)
            for cr in right:
                if not cr.valid:
                    continue
                rlo, rhi = interval(cr)
                lo = llo if rlo is None else (rlo if llo is None else max(llo, rlo))
                hi = lhi if rhi is None else (rhi if lhi is None else min(lhi, rhi))
                if lo is None or hi is None or lo < hi:
                    union((s, cl.idx), (s + 1, cr.idx))
    roots = {find(a) for a in parent}
    rid = {r: i for i, r in enumerate(sorted(roots))}
    for s, col in enumerate(cells):
        for c in col:
            if c.valid:
                c.region = rid[find((s, c.idx))]
    return len(roots)
