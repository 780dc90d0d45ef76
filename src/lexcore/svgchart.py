"""Minimal SVG line and bar charts rendered by direct text generation.

No plotting dependency: the figures are plain polylines, bars, axes and
a legend.  Output is deterministic; an optional timestamp string is the
only run-dependent content and can be omitted entirely.
"""

from __future__ import annotations

from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 46
_PLOT_W = _WIDTH - _MARGIN_L - _MARGIN_R
_PLOT_H = _HEIGHT - _MARGIN_T - _MARGIN_B


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _frame(title: str, timestamp: str | None) -> tuple[list[str], list[str]]:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:g}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]
    tail = []
    if timestamp:
        tail.append(f"<metadata>generated {_esc(timestamp)}</metadata>")
    tail.append("</svg>")
    return head, tail


def _axes(x0: float, y0: float, x1: float, y1: float) -> str:
    return (
        f'<path d="M {x0:g} {_fmt(y1)} L {x0:g} {_fmt(y0)} L {x1:g} {_fmt(y0)}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )


def line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str = "",
    timestamp: str | None = None,
) -> str:
    """Render named (x, y) point sequences as one multi-line chart."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys + [0.0]), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y: float) -> float:
        return _MARGIN_T + _PLOT_H - (y - y_lo) / (y_hi - y_lo) * _PLOT_H

    head, tail = _frame(title, timestamp)
    body = [_axes(_MARGIN_L, _MARGIN_T + _PLOT_H, _WIDTH - _MARGIN_R, _MARGIN_T)]
    for tx in _ticks(x_lo, x_hi):
        body.append(
            f'<text x="{px(tx):g}" y="{_MARGIN_T + _PLOT_H + 18:g}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        body.append(
            f'<text x="{_MARGIN_L - 6:g}" y="{py(ty) + 4:g}" text-anchor="end">{_fmt(ty)}</text>'
        )
        body.append(
            f'<line x1="{_MARGIN_L:g}" y1="{py(ty):g}" x2="{_WIDTH - _MARGIN_R:g}" y2="{py(ty):g}" '
            'stroke="#dddddd" stroke-width="0.5"/>'
        )
    for i, (name, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):g},{py(y):g}" for x, y in pts)
        body.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 8 + 16 * i
        body.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 120:g}" y1="{ly:g}" x2="{_WIDTH - _MARGIN_R - 100:g}" '
            f'y2="{ly:g}" stroke="{color}" stroke-width="2"/>'
        )
        body.append(f'<text x="{_WIDTH - _MARGIN_R - 94:g}" y="{ly + 4:g}">{_esc(name)}</text>')
    return "\n".join(head + body + tail) + "\n"


def bar_chart(
    labels: Sequence[str],
    groups: Sequence[tuple[str, Sequence[float]]],
    title: str = "",
    timestamp: str | None = None,
) -> str:
    """Render grouped bars: one cluster per label, one bar per group."""
    values = [v for _, vs in groups for v in vs]
    v_hi = max(values + [0.0]) or 1.0
    n_labels = max(len(labels), 1)
    n_groups = max(len(groups), 1)
    cluster_w = _PLOT_W / n_labels
    bar_w = cluster_w * 0.8 / n_groups

    def py(v: float) -> float:
        return _MARGIN_T + _PLOT_H - v / v_hi * _PLOT_H

    head, tail = _frame(title, timestamp)
    body = [_axes(_MARGIN_L, _MARGIN_T + _PLOT_H, _WIDTH - _MARGIN_R, _MARGIN_T)]
    for ty in _ticks(0.0, v_hi):
        body.append(
            f'<text x="{_MARGIN_L - 6:g}" y="{py(ty) + 4:g}" text-anchor="end">{_fmt(ty)}</text>'
        )
    for li, label in enumerate(labels):
        cx = _MARGIN_L + cluster_w * (li + 0.5)
        body.append(
            f'<text x="{cx:g}" y="{_MARGIN_T + _PLOT_H + 18:g}" text-anchor="middle">{_esc(label)}</text>'
        )
        for gi, (_, vs) in enumerate(groups):
            v = vs[li] if li < len(vs) else 0.0
            bx = cx - 0.4 * cluster_w + gi * bar_w
            body.append(
                f'<rect x="{bx:g}" y="{py(v):g}" width="{bar_w:g}" height="{_MARGIN_T + _PLOT_H - py(v):g}" '
                f'fill="{PALETTE[gi % len(PALETTE)]}"/>'
            )
    for gi, (name, _) in enumerate(groups):
        ly = _MARGIN_T + 8 + 16 * gi
        body.append(
            f'<rect x="{_WIDTH - _MARGIN_R - 120:g}" y="{ly - 8:g}" width="12" height="12" '
            f'fill="{PALETTE[gi % len(PALETTE)]}"/>'
        )
        body.append(f'<text x="{_WIDTH - _MARGIN_R - 102:g}" y="{ly + 2:g}">{_esc(name)}</text>')
    return "\n".join(head + body + tail) + "\n"
