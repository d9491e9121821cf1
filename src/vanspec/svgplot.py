"""Minimal deterministic SVG line plots.

Keeps plotting out of the dependency set: a handful of polylines with axes,
ticks and a legend, emitted as a plain string.  Output depends only on the
data, so plots never perturb reproducibility of the tables they render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2", "#7f7f7f", "#bcbd22")
WIDTH, HEIGHT = 640, 440  # pixels


@dataclass(frozen=True)
class Series:
    x: Sequence[float]
    y: Sequence[float]
    label: str


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * abs(hi):
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0 ** e <= hi * (1 + 1e-12):
        if 10.0 ** e >= lo * (1 - 1e-12):
            ticks.append(10.0 ** e)
        e += 1
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def line_plot_svg(
    series: Sequence[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> str:
    ml, mr, mt, mb = 62, 16, 34, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y if not logy or v > 0]
    if not xs or not ys:  # nothing to plot: an empty frame, one decade on a log axis
        xs, ys = [0.0, 1.0], ([1.0, 10.0] if logy else [0.0, 1.0])
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + max(abs(ylo), 1.0)

    def tx(v: float) -> float:
        return ml + (v - xlo) / (xhi - xlo) * pw

    def ty(v: float) -> float:
        if logy:
            return mt + ph - (math.log10(v) - math.log10(ylo)) / (
                math.log10(yhi) - math.log10(ylo)
            ) * ph
        return mt + ph - (v - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{mt - 12}" text-anchor="middle" font-size="13">{title}</text>'
        )
    for t in _nice_ticks(xlo, xhi):
        if xlo <= t <= xhi:
            px = tx(t)
            parts.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 4}" stroke="#444"/>')
            parts.append(f'<text x="{px:.2f}" y="{mt + ph + 16}" text-anchor="middle">{_fmt(t)}</text>')
    yticks = _log_ticks(ylo, yhi) if logy else _nice_ticks(ylo, yhi)
    for t in yticks:
        if ylo * (1 - 1e-12) <= t <= yhi * (1 + 1e-12):
            py = ty(t)
            parts.append(f'<line x1="{ml - 4}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="#444"/>')
            parts.append(f'<text x="{ml - 7}" y="{py + 3:.2f}" text-anchor="end">{_fmt(t)}</text>')
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>'
        )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{tx(x):.2f},{ty(y):.2f}"
            for x, y in zip(s.x, s.y)
            if (not logy or y > 0)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 14 + 14 * i
        parts.append(f'<line x1="{ml + pw - 120}" y1="{ly}" x2="{ml + pw - 100}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 95}" y="{ly + 3}">{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
