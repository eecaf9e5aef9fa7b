"""Deterministic SVG rendering of one- and two-sided circular layouts.

Vertices sit equally spaced on a circle in cyclic order, interior edges are
straight chords, exterior edges are circular arcs routed outside the circle
with radial clearance growing with the chord's span.  The SVG is handwritten
(no drawing library) on a fixed 1000x1000 canvas with fixed-precision
coordinates, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import LayoutInstance, TwoSidedAssignment, count_crossings, exterior_crossings

__all__ = ["LayoutStats", "layout_stats", "render_layout"]

CANVAS = 1000.0
CENTER = CANVAS / 2.0
RADIUS = 400.0
VERTEX_RADIUS = 6.0
ARC_CLEARANCE = 0.15  # exterior control radius factor per span fraction


@dataclass(frozen=True)
class LayoutStats:
    """Crossing bookkeeping of a two-sided drawing."""

    interior_crossings: int
    exterior_crossings: int
    n_exterior: int
    max_exterior_crossings: int


def layout_stats(instance: LayoutInstance, assignment: TwoSidedAssignment) -> LayoutStats:
    """The drawing's side counts and its worst exterior edge, both read off
    the exterior edges' crossing counts kept for the assignment."""
    interior, exterior = count_crossings(instance, assignment)
    worst = max(exterior_crossings(instance, assignment).values(), default=0)
    return LayoutStats(interior, exterior, len(assignment.exterior), worst)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _vertex_xy(index: int, n: int) -> tuple[float, float]:
    theta = -math.pi / 2.0 + 2.0 * math.pi * index / n
    return CENTER + RADIUS * math.cos(theta), CENTER + RADIUS * math.sin(theta)


def _arc_path(iu: int, iv: int, n: int) -> str:
    """Exterior arc between order positions iu and iv: the circular arc
    through a control point lifted radially off the shorter side's angular
    midpoint."""
    x1, y1 = _vertex_xy(iu, n)
    x2, y2 = _vertex_xy(iv, n)
    forward = (iv - iu) % n
    if forward <= n - forward:
        mid_index = iu + forward / 2.0
        dmin = forward
    else:
        mid_index = iv + (n - forward) / 2.0
        dmin = n - forward
    frac = dmin / (n / 2.0)
    rc = RADIUS * (1.0 + ARC_CLEARANCE * frac)
    theta = -math.pi / 2.0 + 2.0 * math.pi * mid_index / n
    cxp = CENTER + rc * math.cos(theta)
    cyp = CENTER + rc * math.sin(theta)

    d = 2.0 * (x1 * (cyp - y2) + cxp * (y2 - y1) + x2 * (y1 - cyp))
    if abs(d) < 1e-9:
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    q1 = x1 * x1 + y1 * y1
    q2 = cxp * cxp + cyp * cyp
    q3 = x2 * x2 + y2 * y2
    ox = (q1 * (cyp - y2) + q2 * (y2 - y1) + q3 * (y1 - cyp)) / d
    oy = (q1 * (x2 - cxp) + q2 * (x1 - x2) + q3 * (cxp - x1)) / d
    rho = math.hypot(x1 - ox, y1 - oy)

    a1 = math.atan2(y1 - oy, x1 - ox)
    am = math.atan2(cyp - oy, cxp - ox)
    a2 = math.atan2(y2 - oy, x2 - ox)
    two_pi = 2.0 * math.pi
    delta_pos = (a2 - a1) % two_pi
    delta_mid = (am - a1) % two_pi
    if delta_mid <= delta_pos:
        sweep = 1
        extent = delta_pos
    else:
        sweep = 0
        extent = two_pi - delta_pos
    large = 1 if extent > math.pi else 0
    return (
        f"M {_fmt(x1)} {_fmt(y1)} "
        f"A {_fmt(rho)} {_fmt(rho)} 0 {large} {sweep} {_fmt(x2)} {_fmt(y2)}"
    )


def render_layout(
    instance: LayoutInstance,
    assignment: TwoSidedAssignment,
    labels: bool = False,
) -> str:
    """SVG document for the two-sided drawing; byte-deterministic."""
    assignment.validate_for(instance)
    pos = instance.positions
    n = instance.n_vertices
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(CANVAS)}" height="{int(CANVAS)}" '
        f'viewBox="0 0 {int(CANVAS)} {int(CANVAS)}">',
        f'<rect width="{int(CANVAS)}" height="{int(CANVAS)}" fill="white"/>',
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(RADIUS)}" '
        f'fill="none" stroke="#d0d0d0" stroke-width="1"/>',
    ]
    if n > 0:
        xy = {v: tuple(map(_fmt, _vertex_xy(i, n))) for i, v in enumerate(instance.order)}
        lines.append('<g stroke="#555555" stroke-width="1.5" fill="none">')
        for eid in sorted(assignment.interior):
            u, v = instance.edges[eid]
            (x1, y1), (x2, y2) = xy[u], xy[v]
            lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        lines.append("</g>")
        lines.append('<g stroke="#c0392b" stroke-width="1.5" fill="none">')
        for eid in sorted(assignment.exterior):
            u, v = instance.edges[eid]
            lines.append(f'<path d="{_arc_path(pos[u], pos[v], n)}"/>')
        lines.append("</g>")
        lines.append('<g fill="#1f2937">')
        r = _fmt(VERTEX_RADIUS)
        for v in instance.order:
            x, y = xy[v]
            lines.append(f'<circle cx="{x}" cy="{y}" r="{r}"/>')
        lines.append("</g>")
        if labels:
            lines.append('<g font-family="sans-serif" font-size="18" fill="#1f2937">')
            for v in instance.order:
                theta = -math.pi / 2.0 + 2.0 * math.pi * pos[v] / n
                lx = CENTER + (RADIUS + 30.0) * math.cos(theta)
                ly = CENTER + (RADIUS + 30.0) * math.sin(theta)
                lines.append(
                    f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" '
                    f'text-anchor="middle" dominant-baseline="middle">{v}</text>'
                )
            lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
