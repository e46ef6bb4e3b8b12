"""Deterministic SVG rendering of chart documents.

Charts use the (t-s, s) plane: one marker per declared class at
(stem, filtration), one arrow per differential, and dashed guide lines whose
exact rational intercepts are clipped to the window before any conversion to
pixel coordinates.  Rendering the same document twice yields identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .dsl import ChartDocument, DslSemanticError, GuideSpec
from .reps import Line, line_L
from .vanishing import boundary_line, vanishing_line

__all__ = ["emit_svg"]

CELL = 36
PAD = 48

_STYLE = """\
  <style>
    text { font-family: monospace; font-size: 10px; fill: #222222; }
    .grid { stroke: #eeeeee; stroke-width: 1; }
    .axis { stroke: #555555; stroke-width: 1; }
    .guide { stroke: #888888; stroke-dasharray: 4 3; fill: none; }
    .guide-label { fill: #666666; }
    .cls { fill: #111111; }
    .d-seed { stroke: #1f77b4; stroke-width: 1.5; fill: none; }
    .d-transported { stroke: #d62728; stroke-width: 1.5; fill: none; }
    .d-generated { stroke: #2ca02c; stroke-width: 1.5; fill: none; }
    .d-user { stroke: #111111; stroke-width: 1.5; fill: none; }
    .warning { fill: #bb0000; font-size: 11px; }
  </style>"""


def _fmt(v: int | Fraction) -> str:
    s = f"{float(v):.2f}"
    s = s.rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``; ``html`` is a costly import for three replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _guide_line(g: GuideSpec, doc: ChartDocument) -> tuple[Line, str]:
    """The guide's line and label."""
    if g.kind == "L":
        return line_L(doc.grading, g.k), f"L{g.k}"
    if g.kind == "vanish":
        return vanishing_line(doc.grading, g.h, g.k), f"N k={g.k}"
    return boundary_line(doc.grading), "boundary"


def _clip(line: Line, window: tuple[int, int, int]):
    """Clip s = slope*x + intercept to the window box, exactly."""
    x_min, x_max, s_max = window
    if line.slope == 0:
        s = line.intercept
        if 0 <= s <= s_max:
            return (Fraction(x_min), s), (Fraction(x_max), s)
        return None
    lo = max(Fraction(x_min), (Fraction(0) - line.intercept) / line.slope)
    hi = min(Fraction(x_max), (Fraction(s_max) - line.intercept) / line.slope)
    if lo > hi:
        return None
    return (lo, line.at(lo)), (hi, line.at(hi))


def emit_svg(doc: ChartDocument) -> bytes:
    """Render a chart document; requires the window to be set."""
    if doc.window is None:
        raise DslSemanticError("cannot render a chart without a window")
    x_min, x_max, s_max = doc.window
    width = 2 * PAD + (x_max - x_min) * CELL
    height = 2 * PAD + s_max * CELL

    # stem x sits at pixel x0 + x * CELL and filtration s at y0 - s * CELL;
    # positions are ints except at guide ends, which _fmt writes
    x0, y0 = PAD - x_min * CELL, height - PAD
    left, right, top = x0 + x_min * CELL, x0 + x_max * CELL, y0 - s_max * CELL

    def inside(x: int, s: int) -> bool:
        return x_min <= x <= x_max and 0 <= s <= s_max

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        _STYLE,
        "  <defs>",
        '    <marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">',
        '      <path d="M 0 0 L 8 4 L 0 8 z" fill="context-stroke"/>',
        "    </marker>",
        "  </defs>",
    ]

    # grid and integer tick labels
    for x in range(x_min, x_max + 1):
        px = x0 + x * CELL
        out.append(f'  <line class="grid" x1="{px}" y1="{y0}" x2="{px}" y2="{top}"/>')
        out.append(f'  <text x="{px}" y="{y0 + 14}" text-anchor="middle">{x}</text>')
    for s in range(0, s_max + 1):
        py = y0 - s * CELL
        out.append(f'  <line class="grid" x1="{left}" y1="{py}" x2="{right}" y2="{py}"/>')
        out.append(f'  <text x="{left - 8}" y="{py + 3}" text-anchor="end">{s}</text>')

    # axes: the filtration-0 row and, when visible, the stem-0 column
    out.append(f'  <line class="axis" x1="{left}" y1="{y0}" x2="{right}" y2="{y0}"/>')
    if x_min <= 0 <= x_max:
        out.append(f'  <line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{top}"/>')

    for g in doc.guides:
        line, label = _guide_line(g, doc)
        seg = _clip(line, doc.window)
        if seg is None:
            continue
        (xa, sa), (xb, sb) = seg
        out.append(
            f'  <line class="guide" x1="{_fmt(x0 + xa * CELL)}" y1="{_fmt(y0 - sa * CELL)}" '
            f'x2="{_fmt(x0 + xb * CELL)}" y2="{_fmt(y0 - sb * CELL)}"/>'
        )
        out.append(
            f'  <text class="guide-label" x="{_fmt(x0 + xb * CELL + 4)}" '
            f'y="{_fmt(y0 - sb * CELL - 4)}">{label}</text>'
        )

    visible = 0
    for d in doc.diffs:
        sx, sy, _ = d.source.bidegree()
        tx, ty, _ = d.target.bidegree()
        if not (inside(sx, sy) and inside(tx, ty)):
            continue
        visible += 1
        out.append(
            f'  <line class="d-{d.provenance}" x1="{x0 + sx * CELL}" y1="{y0 - sy * CELL}" '
            f'x2="{x0 + tx * CELL}" y2="{y0 - ty * CELL}" marker-end="url(#arrow)"/>'
        )
    for name, m in doc.classes:
        x, s, _ = m.bidegree()
        if m.is_zero or not inside(x, s):
            continue
        visible += 1
        px, py = x0 + x * CELL, y0 - s * CELL
        out.append(f'  <circle class="cls" cx="{px}" cy="{py}" r="3.5"/>')
        out.append(f'  <text x="{px + 6}" y="{py - 6}">{_escape(name)}</text>')

    if (doc.classes or doc.diffs) and visible == 0:
        out.append(
            f'  <text class="warning" x="{PAD}" y="{PAD - 24}">'
            "warning: window excludes every declared item</text>"
        )

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
