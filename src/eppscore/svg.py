"""Dependency-free SVG scatter plot for embedding points.

Produces deterministic text output (fixed coordinate formatting), so plots
can be diffed and asserted in tests.
"""

from __future__ import annotations

import math

from .analysis import EmbeddingPoint

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 150, 36, 48


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data (the bytes of
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib.request``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    raw_step = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(round(t, 12))
        t += step
    return ticks


def scatter_svg(
    points: list[EmbeddingPoint],
    x_label: str = "average EPP",
    y_label: str | None = None,
    title: str = "EPP embedding map",
) -> str:
    """Scatter of (avg_epp, spread), one color per algorithm, with legend."""
    if y_label is None:
        kinds = {p.spread_kind.value for p in points}
        kind = kinds.pop() if len(kinds) == 1 else "absolute"
        y_label = f"{kind} absolute deviation of EPP"
    algorithms = sorted({p.algorithm for p in points})
    color_of = {a: _PALETTE[i % len(_PALETTE)] for i, a in enumerate(algorithms)}

    xs = [p.avg_epp for p in points] or [0.0]
    ys = [p.spread for p in points] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14" '
        f'font-weight="bold">{escape(title)}</text>',
    ]
    axis_style = 'stroke="#333333" stroke-width="1"'
    x_axis_y = _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{x_axis_y}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{x_axis_y}" {axis_style}/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{x_axis_y}" {axis_style}/>'
    )
    text_style = 'font-family="sans-serif" font-size="11" fill="#333333"'
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{x_axis_y}" x2="{px:.2f}" '
            f'y2="{x_axis_y + 4}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{x_axis_y + 16}" text-anchor="middle" '
            f"{text_style}>{t:g}</text>"
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 7}" y="{py + 3.5:.2f}" text-anchor="end" '
            f"{text_style}>{t:g}</text>"
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" {text_style}>{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})" '
        f"{text_style}>{escape(y_label)}</text>"
    )
    for p in sorted(points, key=lambda q: (q.algorithm, q.dataset_id)):
        parts.append(
            f'<circle cx="{sx(p.avg_epp):.2f}" cy="{sy(p.spread):.2f}" r="4" '
            f'fill="{color_of[p.algorithm]}" fill-opacity="0.8">'
            f"<title>{escape(p.algorithm)} / {escape(p.dataset_id)}</title></circle>"
        )
    legend_x = _MARGIN_L + plot_w + 16
    for i, alg in enumerate(algorithms):
        ly = _MARGIN_T + 12 + 18 * i
        parts.append(
            f'<circle cx="{legend_x}" cy="{ly}" r="5" fill="{color_of[alg]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 10}" y="{ly + 4}" {text_style}>'
            f"{escape(alg)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
