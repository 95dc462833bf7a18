"""Tiny hand-rolled SVG line charts.

Output is a plain polyline chart with axes, ticks and a legend; everything
is formatted with fixed precision so a given input always produces the same
bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape


@dataclass
class Series:
    label: str
    xs: list
    ys: list
    color: str = "#1f77b4"


PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _axis_range(values: list) -> tuple[float, float]:
    """(min, max) of values, (0, 1) of none; a flat range is widened by 1, or to 0."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi <= lo:
        hi = lo + 1.0
        if hi == lo:  # |lo| >= 2^53 rounds the 1 away
            lo, hi = min(lo, 0.0), max(hi, 0.0)
    return lo, hi


def _unit(lo: float, hi: float):
    """v -> (v - lo) / (hi - lo), halving every term where hi - lo overflows (lo < 0 < hi)."""
    if hi - lo < math.inf:
        return lambda v: (v - lo) / (hi - lo)
    return lambda v: (v / 2 - lo / 2) / (hi / 2 - lo / 2)


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    if step < math.inf:
        return [lo + i * step for i in range(5)]
    return [lo * (1 - i / 4) + hi * (i / 4) for i in range(5)]  # lo < 0 < hi: no overflow


def line_chart(
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render series as a 760 x 420 SVG string; title, axis and series labels are XML-escaped."""
    width, height = 760, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    x_lo, x_hi = _axis_range([x for s in series for x in s.xs])
    y_lo, y_hi = _axis_range([y for s in series for y in s.ys])
    x_unit, y_unit = _unit(x_lo, x_hi), _unit(y_lo, y_hi)

    def px(x: float) -> float:
        return margin_l + x_unit(x) * plot_w

    def py(y: float) -> float:
        return margin_t + (1.0 - y_unit(y)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(title, quote=False)}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        gx = px(tx)
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{margin_t + plot_h}" x2="{_fmt(gx)}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{margin_t + plot_h + 18}" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        gy = py(ty)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{_fmt(gy)}" x2="{margin_l}" '
            f'y2="{_fmt(gy)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{_fmt(gy + 4)}" text-anchor="end">{ty:g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 8}" '
            f'text-anchor="middle">{escape(x_label, quote=False)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.0f})">'
            f"{escape(y_label, quote=False)}</text>"
        )
    for s in series:
        pts = " ".join(
            f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{s.color}" stroke-width="1.5"/>'
        )
    for k, s in enumerate(series):
        ly = margin_t + 14 + 16 * k
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{s.color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{escape(s.label, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
