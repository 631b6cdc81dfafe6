"""The run-output writers format whole arrays at once; these references format one value at a time, and both
must give the same bytes: on empty, one- and two-round curves, a 500-round curve, NaN, +-inf and -0.0 in a
series or its band, a series without a band and the ratio chart's float heights."""
import warnings

import numpy as np
import pytest

from hierts import RegretCurve, write_regret_csv
from hierts import svgchart
from hierts.svgchart import _FALLBACK, _H, _MB, _ML, _MR, _MT, _W, PALETTE, _fmt, _ticks, write_line_chart

AGENTS = ("HierTS", "FlatTS", "TS")


def _reference_chart(series, *, title, x_label, y_label) -> str:
    """write_line_chart's text with every point formatted on its own (numpy scalars through sx and sy)."""
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
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10">{_fmt(tv)}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        out.append(f'<line x1="{_ML - 4}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#444"/>')
        out.append(f'<text x="{_ML - 7}" y="{py + 3:.2f}" text-anchor="end" font-size="10">{_fmt(tv)}</text>')
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" stroke="#eee"/>')
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="#222"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="#222"/>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle" font-size="12">{x_label}</text>')
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
        band = s.get("band")
        if band is not None:
            band = np.asarray(band, float)
            upper = [f"{sx(xv):.2f},{sy(yv + bv):.2f}" for xv, yv, bv in zip(x, y, band)]
            lower = [f"{sx(xv):.2f},{sy(yv - bv):.2f}" for xv, yv, bv in zip(x[::-1], y[::-1], band[::-1])]
            out.append(f'<polygon points="{" ".join(upper + lower)}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - 150}" y1="{ly}" x2="{_W - 126}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - 120}" y="{ly + 4}" font-size="11">{s["name"]}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference_regret_csv(curve) -> str:
    lines = ["round,agent,mean_regret,se,instances"]
    for kind in curve.agents:
        m, s = curve.mean[kind], curve.se[kind]
        for t in range(curve.horizon):
            lines.append(f"{t + 1},{kind},{m[t]:.12g},{s[t]:.12g},{curve.instances}")
    return "\n".join(lines) + "\n"


def _curve(horizon: int, seed: int, where: str | None = None, value: float = 0.0) -> RegretCurve:
    """Random cumulative-regret curves; where = 'y' or 'band' puts value into two rounds of every agent's means
    or SEs."""
    rng = np.random.default_rng(seed)
    mean = {k: np.cumsum(rng.exponential(0.3, horizon)) for k in AGENTS}
    se = {k: rng.exponential(0.1, horizon) * np.sqrt(np.arange(1, horizon + 1)) for k in AGENTS}
    if where is not None:
        for k in AGENTS:
            (mean if where == "y" else se)[k][rng.choice(horizon, size=2, replace=False)] = value
    return RegretCurve(horizon=horizon, instances=7, agents=AGENTS, mean=mean, se=se)


CASES = [(h, None, 0.0) for h in (0, 1, 2, 500)] + [
    (h, where, value) for h in (2, 500) for where in ("y", "band") for value in (np.nan, np.inf, -np.inf, -0.0)]


@pytest.mark.parametrize("horizon,where,value", CASES)
def test_writers_match_per_value_formatting(tmp_path, horizon, where, value):
    curve = _curve(horizon, horizon, where, value)
    write_regret_csv(curve, tmp_path / "regret.csv")
    assert (tmp_path / "regret.csv").read_text() == _reference_regret_csv(curve)
    x = np.arange(1, horizon + 1)
    charts = {
        "bands": [{"name": k, "x": x, "y": curve.mean[k], "band": curve.se[k]} for k in AGENTS],
        "no-band": [{"name": "HierTS", "x": x, "y": curve.mean["HierTS"]},
                    {"name": "other", "x": x, "y": curve.se["TS"], "band": curve.se["FlatTS"]}],
    }
    labels = dict(title="Bayes regret", x_label="round", y_label="cumulative regret")
    for name, series in charts.items():
        with warnings.catch_warnings():  # inf - inf and the like warn in both writers
            warnings.simplefilter("ignore", RuntimeWarning)
            write_line_chart(tmp_path / f"{name}.svg", series, **labels)
            want = _reference_chart(series, **labels)
        assert (tmp_path / f"{name}.svg").read_text() == want, name


def test_ratio_chart_matches_per_value_formatting(tmp_path):
    heights = np.asarray((1, 2, 3, 5), float)
    rng = np.random.default_rng(3)
    series = [{"name": k, "x": heights, "y": rng.uniform(0.5, 3.0, 4), "band": rng.uniform(0.0, 0.4, 4)}
              for k in ("HierTS", "FlatTS")]
    labels = dict(title="Regret ratio vs TS", x_label="tree height", y_label="ratio")
    write_line_chart(tmp_path / "ratios.svg", series, **labels)
    assert (tmp_path / "ratios.svg").read_text() == _reference_chart(series, **labels)
    assert svgchart._points(np.array([-0.0, 1.005]), np.array([np.nan, -np.inf])) == "-0.00,nan 1.00,-inf"
    assert svgchart._points(np.array([2.5]), np.array([np.inf])) == "2.50,inf"
