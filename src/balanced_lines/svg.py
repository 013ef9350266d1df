"""Deterministic SVG figures.

This is the only module that touches floating point: exact coordinates are
formatted at fixed precision for rendering and never read back.
"""

from __future__ import annotations

from fractions import Fraction

from .certificate import Certificate
from .geometry import Color, DirectedLine, Instance
from .oracle import BalancedLine, sorted_lines
from .rotation import RotationTrace

SIZE = 600
MARGIN = 40

RED = "#c0392b"
BLUE = "#2166ac"
FLANK_F = "#e67e22"
FLANK_H = "#8e44ad"
STRIP = "#27ae60"
LINE = "#555555"
CURVE = "#111111"


class _View:
    def __init__(self, inst: Instance):
        xs = [Fraction(p.x) for p in inst.points]
        ys = [Fraction(p.y) for p in inst.points]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
        self.scale = Fraction(SIZE - 2 * MARGIN, span)
        self.cx = (lo_x + hi_x) / 2
        self.cy = (lo_y + hi_y) / 2

    def map(self, x, y) -> tuple[float, float]:
        sx = float((Fraction(x) - self.cx) * self.scale) + SIZE / 2
        sy = SIZE / 2 - float((Fraction(y) - self.cy) * self.scale)
        return sx, sy


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]


def _dot(view: _View, x, y, fill: str, label: str) -> str:
    sx, sy = view.map(x, y)
    return (
        f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="5" fill="{fill}"/>'
        f'<text x="{_fmt(sx + 7)}" y="{_fmt(sy - 7)}" font-size="11">{label}</text>'
    )


def _infinite_line(view: _View, line: DirectedLine, stroke: str, dash: str = "") -> str:
    # extend far beyond the viewport; visually clipped by the viewBox
    reach = 100
    x1 = Fraction(line.ax) - reach * line.direction.dx
    y1 = Fraction(line.ay) - reach * line.direction.dy
    x2 = Fraction(line.ax) + reach * line.direction.dx
    y2 = Fraction(line.ay) + reach * line.direction.dy
    a = view.map(x1, y1)
    b = view.map(x2, y2)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
        f'y2="{_fmt(b[1])}" stroke="{stroke}" stroke-width="1"{extra}/>'
    )


def _segment_line(view: _View, inst: Instance, red_id: int, blue_id: int) -> str:
    line = DirectedLine.through_points(inst, red_id, blue_id)
    return _infinite_line(view, line, LINE)


def _points(view: _View, inst: Instance, colors=None) -> list[str]:
    out = []
    for p in inst.points:
        fill = (colors or {}).get(p.id) or (RED if p.color is Color.RED else BLUE)
        out.append(_dot(view, p.x, p.y, fill, str(p.id)))
    return out


def render_points(inst: Instance) -> str:
    view = _View(inst)
    return "\n".join(_header() + _points(view, inst) + ["</svg>"]) + "\n"


def render_balanced(inst: Instance, lines: set[BalancedLine]) -> str:
    view = _View(inst)
    body = [_segment_line(view, inst, l.red_id, l.blue_id) for l in sorted_lines(lines)]
    return "\n".join(_header() + body + _points(view, inst) + ["</svg>"]) + "\n"


def render_rotation(inst: Instance, trace: RotationTrace) -> str:
    view = _View(inst)
    start = DirectedLine.pivot_direction(
        inst, trace.initial_pivot, trace.spec.start_direction
    )
    body = [_infinite_line(view, start, CURVE)]
    for ev in trace.events:
        body.append(_infinite_line(view, ev.line_in(inst), LINE, dash="4 3"))
    return "\n".join(_header() + body + _points(view, inst) + ["</svg>"]) + "\n"


def render_certificate(inst: Instance, cert: Certificate) -> str:
    view = _View(inst)
    body = []
    colors = {}
    if cert.gamma is not None:
        w = cert.gamma.waist
        body.append(_infinite_line(view, w.line_low, CURVE, dash="6 3"))
        body.append(_infinite_line(view, w.line_high, CURVE, dash="6 3"))
        for i in cert.f_ids:
            colors[i] = FLANK_F
        for i in cert.h_ids:
            colors[i] = FLANK_H
        for i in cert.g_ids:
            colors[i] = STRIP
    for c in cert.lines:
        body.append(_segment_line(view, inst, c.line.red_id, c.line.blue_id))
    return "\n".join(_header() + body + _points(view, inst, colors) + ["</svg>"]) + "\n"
