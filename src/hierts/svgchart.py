"""Minimal deterministic SVG line charts.

Output depends only on the data passed in: no timestamps, no library
version strings, fixed float formatting. Each series is a polyline with an
optional shaded standard-error band.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_line_chart"]

PALETTE = {
    "HierTS": "#1b7837",
    "FlatTS": "#2166ac",
    "TS": "#b2182b",
}
_FALLBACK = ("#762a83", "#e08214", "#35978f", "#c51b7d")

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """SVG points "x,y x,y ..." at two decimals, formatted by one template over the flat coordinates."""
    return ("%.2f,%.2f " * x.size)[:-1] % tuple(np.stack((x, y), 1).ravel().tolist())


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def write_line_chart(
    path: str | Path,
    series: list[dict],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a chart; series entries carry name, x, y and an optional band
    array of half-widths around y."""
    xs = np.concatenate([np.asarray(s["x"], float) for s in series if len(s["x"])] or [np.zeros(1)])
    lows, highs = [], []
    for s in series:
        y = np.asarray(s["y"], float)
        if not y.size:
            continue
        band = np.asarray(s.get("band"), float) if s.get("band") is not None else np.zeros_like(y)
        lows.append(float((y - band).min()))
        highs.append(float((y + band).max()))
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = (min(lows), max(highs)) if lows else (0.0, 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # Pixel coordinates of a tick (a float) or of a whole series (an array): the same IEEE operations either way.
    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" y2="{_H - _MB + 4}" stroke="#444"/>')
        out.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10">{_fmt(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(f'<line x1="{_ML - 4}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#444"/>')
        out.append(
            f'<text x="{_ML - 7}" y="{py + 3:.2f}" text-anchor="end" font-size="10">{_fmt(tv)}</text>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" stroke="#eee"/>'
        )
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="#222"/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="#222"/>')
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle" font-size="12">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{y_label}</text>'
    )
    for i, s in enumerate(series):
        color = PALETTE.get(s["name"], _FALLBACK[i % len(_FALLBACK)])
        x = np.asarray(s["x"], float)
        y = np.asarray(s["y"], float)
        if not x.size:
            continue
        px = sx(x)
        band = s.get("band")
        if band is not None:  # the upper edge left to right, then the lower edge back
            band = np.asarray(band, float)
            pts = _points(np.concatenate([px, px[::-1]]), np.concatenate([sy(y + band), sy(y - band)[::-1]]))
            out.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        out.append(f'<polyline points="{_points(px, sy(y))}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - 150}" y1="{ly}" x2="{_W - 126}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - 120}" y="{ly + 4}" font-size="11">{s["name"]}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
