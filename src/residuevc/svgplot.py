"""Minimal SVG 1.1 scatter plots: points, reference polylines, axes.

No plotting dependency; the figures are static artifacts written next to
the CSVs they visualize.
"""

from __future__ import annotations

import math
from pathlib import Path

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 28, 44
#: About how many ticks a linear axis gets.
_TICK_TARGET = 6


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / _TICK_TARGET
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(round(t, 10))
        t += step
    return out


def _log_ticks(lo: float, hi: float) -> list[float]:
    out = []
    e = math.floor(math.log10(max(lo, 1e-12)))
    while 10**e <= hi:
        if 10**e >= lo:
            out.append(10**e)
        e += 1
    return out or [lo, hi]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


def scatter_svg(path, points, *, curves=(), x_label: str = "", y_label: str = "",
                title: str = "", log_x: bool = False,
                x_range: tuple[float, float] | None = None,
                y_range: tuple[float, float] | None = None) -> None:
    """Write a scatter plot; ``curves`` are [(x, y), ...] polylines."""
    xs = [p[0] for p in points] + [p[0] for c in curves for p in c]
    ys = [p[1] for p in points] + [p[1] for c in curves for p in c]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = x_range if x_range else (min(xs), max(xs))
    y_lo, y_hi = y_range if y_range else (min(ys), max(ys))
    if x_hi <= x_lo:
        x_hi = x_lo + 1
    if y_hi <= y_lo:
        y_hi = y_lo + 1
    if not y_range:
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    if log_x:
        log_lo = math.log10(x_lo)
        log_span = math.log10(x_hi) - log_lo

    def tx(x: float) -> float:
        if log_x:
            frac = (math.log10(x) - log_lo) / log_span
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + frac * plot_w

    def ty(y: float) -> float:
        return _MARGIN_T + (1 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">{title}</text>')
    x_ticks = _log_ticks(x_lo, x_hi) if log_x else _ticks(x_lo, x_hi)
    for t in x_ticks:
        px = tx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
                     f'y2="{_MARGIN_T + plot_h + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = ty(t)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_MARGIN_L - 7}" y="{py + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')
    if x_label:
        parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{x_label}</text>')
    if y_label:
        cy = _MARGIN_T + plot_h / 2
        parts.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {cy:.1f})">{y_label}</text>')
    for curve in curves:
        pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in curve
                       if x_lo <= x <= x_hi)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" '
                     f'stroke-width="1.5"/>')
    for x, y in points:
        parts.append(f'<circle cx="{tx(x):.2f}" cy="{ty(y):.2f}" r="2.2" '
                     f'fill="#1f77b4" fill-opacity="0.8"/>')
    parts.append("</svg>\n")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
