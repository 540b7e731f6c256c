"""Layered SVG rendering of instances, level overlays and separators."""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Color, LabeledPoint, Separator
from .levels import OverlayFaceMap
from .exactkmm import MinMaxCurve


def _f(x) -> float:
    return float(x)


class SvgBuilder:
    def __init__(self, xlo, xhi, ylo, yhi, width: int = 800):
        self.xlo, self.xhi = _f(xlo), _f(xhi)
        self.ylo, self.yhi = _f(ylo), _f(yhi)
        spanx = max(self.xhi - self.xlo, 1e-9)
        spany = max(self.yhi - self.ylo, 1e-9)
        self.scale = width / spanx
        self.w = width
        self.h = max(int(spany * self.scale), 10)
        self.groups: dict[str, list[str]] = {}
        self.structure: dict[str, list] = {}

    def tx(self, x, y) -> tuple[float, float]:
        return ((_f(x) - self.xlo) * self.scale,
                (self.yhi - _f(y)) * self.scale)

    def add(self, group: str, element: str) -> None:
        self.groups.setdefault(group, []).append(element)

    def polygon(self, group: str, corners, fill: str, extra: str = "") -> None:
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in (self.tx(*c) for c in corners))
        self.add(group, f'<polygon points="{pts}" fill="{fill}" '
                        f'fill-opacity="0.4" stroke="none" {extra}/>')

    def segment(self, group: str, a, b, stroke: str, width: float = 1.0) -> None:
        x1, y1 = self.tx(*a)
        x2, y2 = self.tx(*b)
        self.add(group, f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" '
                        f'y2="{y2:.3f}" stroke="{stroke}" stroke-width="{width}"/>')

    def circle(self, group: str, c, r: float, fill: str) -> None:
        x, y = self.tx(*c)
        self.add(group, f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r}" fill="{fill}"/>')

    def render(self) -> str:
        body = []
        for name, elems in self.groups.items():
            body.append(f'<g id="{name}">')
            body.extend(elems)
            body.append("</g>")
        inner = "\n".join(body)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
            f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">\n{inner}\n</svg>\n'
        )


def _cell_corners(cell, box):
    xlo, xhi, ylo, yhi = box
    a, b = cell.x_lo, cell.x_hi

    def val(edge, x, default):
        return edge.line.y_at(x) if edge is not None else default

    return [
        (a, val(cell.lo_edge, a, ylo)),
        (b, val(cell.lo_edge, b, ylo)),
        (b, val(cell.hi_edge, b, yhi)),
        (a, val(cell.hi_edge, a, yhi)),
    ]


def plot_overlay(
    pts: Sequence[LabeledPoint],
    overlay: OverlayFaceMap,
    curve: Optional[MinMaxCurve] = None,
    separator: Optional[Separator] = None,
) -> tuple[str, dict]:
    """Layered SVG of the dual overlay: shaded valid cells, level edges, the
    MinMax curve and the chosen separator's dual point; plus the primal
    points in a corner inset.  Returns (svg text, structure dict)."""
    xlo, xhi, ylo, yhi = overlay.box
    b = SvgBuilder(xlo, xhi, ylo, yhi)
    structure = {"valid_cells": [], "valid_regions": overlay.valid_region_count}
    for col in overlay.cells:
        for cell in col:
            if not cell.valid:
                continue
            corners = _cell_corners(cell, overlay.box)
            b.polygon(
                "valid-regions", corners, "#7fbf7f",
                extra=f'data-mis="{cell.mis}" data-region="{cell.region}"',
            )
            structure["valid_cells"].append(
                [(str(x), str(y)) for x, y in corners]
            )
    for slab_edges, col in zip(overlay.slabs, overlay.cells):
        a, c = col[0].x_lo, col[0].x_hi
        for e in slab_edges:
            color = "#cc3333" if any(
                l.id == e.line.id for l in overlay.red_lines) else "#3333cc"
            b.segment("level-arrangement", (a, e.line.y_at(a)),
                      (c, e.line.y_at(c)), color, 0.8)
    if curve is not None:
        for p in curve.pieces:
            a = p.x_lo if p.x_lo is not None else xlo
            c = p.x_hi if p.x_hi is not None else xhi
            if a < xlo:
                a = xlo
            if c > xhi:
                c = xhi
            if a < c:
                b.segment("minmax-curve", (a, p.line.y_at(a)),
                          (c, p.line.y_at(c)), "#222222", 1.6)
    if separator is not None:
        b.circle("separator", (separator.line.m, -separator.line.c), 4.0, "#000000")
    for lp in pts:
        b.circle(
            "points", (lp.point.x, lp.point.y), 2.5,
            "#cc3333" if lp.color is Color.RED else "#3333cc",
        )
    return b.render(), structure
