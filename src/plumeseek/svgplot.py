"""Tiny hand-rolled SVG line charts.

Output is a plain polyline chart with axes, ticks and a legend; everything
is formatted with fixed precision so a given input always produces the same
bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Series:
    label: str
    xs: list
    ys: list
    color: str = "#1f77b4"


PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_chart(
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 760,
    height: int = 420,
) -> str:
    """Render series as an SVG string."""
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

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
            f'font-size="14">{title}</text>'
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
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.0f})">{y_label}</text>'
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
        parts.append(f'<text x="{lx + 28}" y="{ly}">{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, svg: str) -> None:
    with open(path, "w") as fh:
        fh.write(svg)
