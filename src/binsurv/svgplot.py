"""Line plots as standalone SVG, no plotting dependency."""

from __future__ import annotations

from html import escape

import numpy as np

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_COLOR = "#1f6fb2"


def line_plot_svg(path, x, series, title: str, xlabel: str, ylabel: str) -> None:
    """Write a one-line plot of ``series``, a (label, values) pair over ``x``."""
    label, ys = series
    x = np.asarray(x, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if x.size == 0:
        raise ValueError("plot needs at least one point")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
    ]
    axis_color = "#444444"
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
                 f'stroke="{axis_color}"/>')
    parts.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" '
                 f'stroke="{axis_color}"/>')
    for tx in np.linspace(x_lo, x_hi, 5):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{y0}" x2="{px(tx):.2f}" '
                     f'y2="{y0 + 5}" stroke="{axis_color}"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in np.linspace(y_lo, y_hi, 5):
        parts.append(f'<line x1="{x0 - 5}" y1="{py(ty):.2f}" x2="{x0}" '
                     f'y2="{py(ty):.2f}" stroke="{axis_color}"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.3g}</text>')
    parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 f'{escape(xlabel, quote=False)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">'
                 f'{escape(ylabel, quote=False)}</text>')

    points = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, ys))
    parts.append(f'<polyline fill="none" stroke="{_COLOR}" stroke-width="1.8" '
                 f'points="{points}"/>')
    ly, lx = _MARGIN_T + 14, _MARGIN_L + plot_w - 150  # the legend
    parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                 f'stroke="{_COLOR}" stroke-width="1.8"/>')
    parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                 f'font-size="12">{escape(str(label), quote=False)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
