"""Minimal SVG rendering of fine curves.

Renders the cells of a fine curve (vertices, segments, rays) into a fixed
viewBox, clipping unbounded rays at the viewport, with base-condition
labels on each cell.  The output is plain SVG 1.1, parseable by
xml.etree.
"""

from __future__ import annotations

from typing import Optional

VIEW = 10.0  # drawing spans [-VIEW, VIEW]^2 in curve coordinates
SIZE = 400.0


def _escape(text: str) -> str:
    """Text content with &, < and > escaped.  Not xml.sax.saxutils.escape,
    whose import pulls in urllib.request and with it http, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _map(x: float, y: float) -> tuple[float, float]:
    s = SIZE / (2 * VIEW)
    return ((x + VIEW) * s, (VIEW - y) * s)


def _clip_t(p0, v, iv) -> tuple[float, float]:
    """Finite parameter range of a (possibly unbounded) cell, clipped."""
    lo = float(iv.lo) if iv.lo is not None else -100.0
    hi = float(iv.hi) if iv.hi is not None else 100.0
    scale = max(abs(v[0]), abs(v[1]), 1)
    lim = 4 * VIEW / scale
    return max(lo, -lim), min(hi, lim)


def _segment(p0, v, iv, style: str, label: Optional[str] = None) -> list[str]:
    lo, hi = _clip_t(p0, v, iv)
    if lo >= hi:
        return []
    x1, y1 = _map(float(p0[0]) + lo * v[0], float(p0[1]) + lo * v[1])
    x2, y2 = _map(float(p0[0]) + hi * v[0], float(p0[1]) + hi * v[1])
    out = [f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>']
    if label:
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        out.append(f'<text x="{mx:.2f}" y="{my - 4:.2f}" font-size="10">'
                   f"{_escape(label)}</text>")
    return out


def _vertex(pt, style: str, label: Optional[str] = None) -> list[str]:
    x, y = _map(float(pt[0]), float(pt[1]))
    out = [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" {style}/>']
    if label:
        out.append(f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" font-size="10">'
                   f"{_escape(label)}</text>")
    return out


def render_fine_curve(curve) -> str:
    """SVG for a FineCurve: skeleton with base-condition labels."""
    body = []
    for c in curve.cells:
        label = str(c.base_cond)
        if c.dim == 0:
            body.extend(_vertex(c.point, 'fill="black"', label))
        else:
            body.extend(_segment(c.line_p0, c.line_v, c.interval,
                                 'stroke="black" stroke-width="1.5"', label))
    return _document(body)


def _document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{SIZE:.0f}" height="{SIZE:.0f}" '
            f'viewBox="0 0 {SIZE:.0f} {SIZE:.0f}">')
    axes = [
        f'<line x1="0" y1="{SIZE / 2}" x2="{SIZE}" y2="{SIZE / 2}" '
        'stroke="#ccc" stroke-width="0.5"/>',
        f'<line x1="{SIZE / 2}" y1="0" x2="{SIZE / 2}" y2="{SIZE}" '
        'stroke="#ccc" stroke-width="0.5"/>',
    ]
    return "\n".join([head] + axes + body + ["</svg>"])
