"""Deterministic SVG 1.1 rendering of arrangements, region hulls and
embedded trees.  Output bytes depend only on the scene contents."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from .geometry import Line, Point, Segment
from .lineset import RegionHull


class EmptyScene(ValueError):
    pass


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

_CANVAS = 720.0


@dataclass
class SvgScene:
    """Layers to draw; the viewport fits the intersection points (plus any
    marked points) with a 10% margin."""

    lines: List[Line] = field(default_factory=list)
    points: List[Point] = field(default_factory=list)
    hulls: List[RegionHull] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)
    vertices: List[Tuple[Point, str]] = field(default_factory=list)


def _viewport(scene: SvgScene) -> Tuple[float, float, float, float]:
    pts: List[Point] = list(scene.points)
    pts += [p for p, _ in scene.vertices]
    for s in scene.segments:
        pts += [s.p, s.q]
    for h in scene.hulls:
        pts += list(h.vertices)
    if not pts:
        raise EmptyScene("nothing to size the viewport by")
    xs = [float(p.x) for p in pts]
    ys = [float(p.y) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = max(x1 - x0, 1e-9)
    h = max(y1 - y0, 1e-9)
    return (x0 - 0.1 * w, y0 - 0.1 * h, w * 1.2, h * 1.2)


def render_svg(scene: SvgScene) -> bytes:
    """Valid standalone SVG 1.1; byte-identical for identical scenes."""
    vx, vy, vw, vh = _viewport(scene)
    scale = _CANVAS / max(vw, vh)

    def tx(p: Point) -> Tuple[float, float]:
        # flip y so the mathematical orientation is preserved on screen
        return ((float(p.x) - vx) * scale, (vy + vh - float(p.y)) * scale)

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    W, H = vw * scale, vh * scale
    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{fmt(W)}" height="{fmt(H)}" '
               f'viewBox="0 0 {fmt(W)} {fmt(H)}">\n')
    out.append(f'<rect width="{fmt(W)}" height="{fmt(H)}" fill="white"/>\n')

    reach = 4.0 * max(vw, vh)
    for k, h in enumerate(scene.hulls):
        pts = _hull_outline(h, reach)
        path = " ".join(f"{fmt(tx(p)[0])},{fmt(tx(p)[1])}" for p in pts)
        color = _PALETTE[k % len(_PALETTE)]
        out.append(f'<polygon points="{path}" fill="{color}" '
                   f'fill-opacity="0.15" stroke="{color}" '
                   f'stroke-width="1"/>\n')

    # every line is drawn between the same two abscissas
    xa, xb = Fraction(vx - vw).limit_denominator(10**6), \
        Fraction(vx + 2 * vw).limit_denominator(10**6)
    for l in scene.lines:
        a, b = tx(l.point_at(xa)), tx(l.point_at(xb))
        out.append(f'<line x1="{fmt(a[0])}" y1="{fmt(a[1])}" '
                   f'x2="{fmt(b[0])}" y2="{fmt(b[1])}" '
                   f'stroke="#555555" stroke-width="1"/>\n')

    for s in scene.segments:
        a, b = tx(s.p), tx(s.q)
        out.append(f'<line x1="{fmt(a[0])}" y1="{fmt(a[1])}" '
                   f'x2="{fmt(b[0])}" y2="{fmt(b[1])}" '
                   f'stroke="#000000" stroke-width="2"/>\n')

    for p in scene.points:
        cx, cy = tx(p)
        out.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="2.5" '
                   f'fill="#333333"/>\n')

    for p, label in scene.vertices:
        cx, cy = tx(p)
        out.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="4" '
                   f'fill="#d62728"/>\n')
        if label:
            out.append(f'<text x="{fmt(cx + 6)}" y="{fmt(cy - 6)}" '
                       f'font-size="12" font-family="monospace">'
                       f'{label}</text>\n')

    out.append("</svg>\n")
    return "".join(out).encode("utf-8")


def _hull_outline(h: RegionHull, reach: float) -> List[Point]:
    """Closed outline of a hull; unbounded rays are truncated at ``reach``."""
    if h.bounded:
        return list(h.vertices)
    first, last = h.sides[0], h.sides[-1]
    r = Fraction(reach).limit_denominator(10**6)

    def stretch(anchor: Point, d) -> Point:
        nx = max(abs(d[0]), abs(d[1]))
        return Point(anchor.x + d[0] * r / nx, anchor.y + d[1] * r / nx)

    head = stretch(h.vertices[0], first.direction)
    tail = stretch(h.vertices[-1], last.direction)
    return [head] + list(h.vertices) + [tail]
