"""Static SVG rendering of sweep reports: mean lines with percentile bands.

Presentation only; the numbers plotted are exactly those in the report. The
SVG is assembled as deterministic text (no external renderer), so identical
reports produce byte-identical files.
"""

from __future__ import annotations

import math

from .data import write_text
from .evaluate import SweepReport

_COLORS = {
    "jacobian": "#d62728",
    "silverman": "#2ca02c",
    "cv": "#1f77b4",
    "seeded-cv": "#9467bd",
}
_FALLBACK = "#7f7f7f"

_W, _H = 760, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 150, 30, 46


def _color(method: str) -> str:
    return _COLORS.get(method, _FALLBACK)


def _fnum(x: float) -> str:
    return format(float(x), ".6g")


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log=False):
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.out_lo, self.out_hi, self.log = lo, hi, out_lo, out_hi, log

    def __call__(self, v: float) -> float:
        if self.log:
            v = math.log10(v)
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def _panel(report: SweepReport, value_of, lo_of, hi_of, y_label, y_top, y_bot, log_y=False):
    xs = [pt.axis_value for pt in report.points]
    log_x = report.axis == "lambda" and min(xs) > 0
    vals = []
    for pt in report.points:
        for m in report.methods:
            s = pt.stats[m]
            for v in (value_of(s), lo_of(s), hi_of(s)):
                if v == v and math.isfinite(v):  # drop NaN points
                    vals.append(v)
    if not vals:
        return []
    v_lo, v_hi = min(vals), max(vals)
    if log_y:
        v_lo = max(v_lo, 1e-12)
        v_hi = max(v_hi, v_lo * 10)
    pad = 0.05 * (v_hi - v_lo) if v_hi > v_lo else max(abs(v_hi), 1.0) * 0.05
    sx = _Scale(min(xs), max(xs), _MARGIN_L, _W - _MARGIN_R, log=log_x)
    sy = _Scale(v_lo if log_y else v_lo - pad, v_hi if log_y else v_hi + pad,
                y_bot, y_top, log=log_y)

    parts = [
        f'<rect x="{_MARGIN_L}" y="{y_top}" width="{_W - _MARGIN_R - _MARGIN_L}" '
        f'height="{y_bot - y_top}" fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_MARGIN_L - 50}" y="{(y_top + y_bot) / 2}" font-size="12" '
        f'transform="rotate(-90 {_MARGIN_L - 50} {(y_top + y_bot) / 2})" '
        f'text-anchor="middle">{y_label}</text>',
    ]
    for m in report.methods:
        color = _color(m)
        pts_mean, band_top, band_bot = [], [], []
        for pt in report.points:
            s = pt.stats[m]
            v, lo, hi = value_of(s), lo_of(s), hi_of(s)
            if not all(math.isfinite(u) for u in (v, lo, hi)):
                continue
            if log_y:
                v, lo, hi = (max(u, 1e-12) for u in (v, lo, hi))
            x = sx(pt.axis_value)
            pts_mean.append((x, sy(v)))
            band_top.append((x, sy(hi)))
            band_bot.append((x, sy(lo)))
        if not pts_mean:
            continue
        band = band_top + band_bot[::-1]
        band_str = " ".join(f"{_fnum(x)},{_fnum(y)}" for x, y in band)
        parts.append(f'<polygon points="{band_str}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line_str = " ".join(f"{_fnum(x)},{_fnum(y)}" for x, y in pts_mean)
        parts.append(
            f'<polyline points="{line_str}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    # x tick labels at the extremes
    parts.append(
        f'<text x="{_MARGIN_L}" y="{y_bot + 16}" font-size="11" text-anchor="middle">'
        f"{_fnum(min(xs))}</text>"
    )
    parts.append(
        f'<text x="{_W - _MARGIN_R}" y="{y_bot + 16}" font-size="11" text-anchor="middle">'
        f"{_fnum(max(xs))}</text>"
    )
    return parts


def render_sweep_svg(report: SweepReport) -> str:
    """Two stacked panels (R^2 and selected sigma) with 5th-95th bands."""
    mid = _H // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts += _panel(
        report,
        lambda s: s.mean_r2, lambda s: s.p05_r2, lambda s: s.p95_r2,
        "R squared", _MARGIN_T, mid - 18,
    )
    parts += _panel(
        report,
        lambda s: s.mean_sigma, lambda s: s.p05_sigma, lambda s: s.p95_sigma,
        "sigma", mid + 18, _H - _MARGIN_B, log_y=True,
    )
    parts.append(
        f'<text x="{(_MARGIN_L + _W - _MARGIN_R) / 2}" y="{_H - 10}" font-size="12" '
        f'text-anchor="middle">{report.axis}</text>'
    )
    for i, m in enumerate(report.methods):
        y = _MARGIN_T + 14 + 18 * i
        x = _W - _MARGIN_R + 12
        parts.append(
            f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
            f'stroke="{_color(m)}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{x + 28}" y="{y}" font-size="12">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_svg(report: SweepReport, path) -> None:
    write_text(path, render_sweep_svg(report))
