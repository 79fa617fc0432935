"""Minimal deterministic SVG line plots.

Hand-emitted so study figures carry no plotting dependency and are
byte-identical across runs: fixed canvas, fixed palette, coordinates
rounded to two decimals.  Log axes drop nonpositive points and report
each drop as a warning string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

WIDTH, HEIGHT = 720.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72.0, 24.0, 40.0, 56.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


@dataclass(frozen=True)
class AxesSpec:
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"
    y_scale: str = "log"
    title: str = ""

    def __post_init__(self):
        for name in ("x_scale", "y_scale"):
            if getattr(self, name) not in ("linear", "log"):
                raise ValueError(f"{name} must be 'linear' or 'log'")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    if value == 0:
        return "0"
    mag = abs(value)
    if 1e-3 <= mag < 1e4 and value == round(value, 4):
        text = f"{value:.4f}".rstrip("0").rstrip(".")
        return text
    return f"{value:.1e}"


def _linear_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo  # > 0: _Axis pads a zero span
    step = 10.0 ** math.floor(math.log10(span / 5.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6.0:
            step *= mult
            break
    # rounding to the step's decimals drops the error the sum builds up,
    # which would otherwise print 0.9400000000000001 as 9.4e-01
    digits = max(0, -math.floor(math.log10(step)))
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, digits))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    decades = range(lo_e, hi_e + 1)
    ticks = [10.0 ** e for e in decades if lo <= 10.0 ** e <= hi]
    if not ticks:
        ticks = [lo, hi]
    # keep at most ~8 labels on tall ranges
    stride = max(1, len(ticks) // 8)
    return ticks[::stride]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class _Axis:
    def __init__(self, scale: str, lo: float, hi: float, px_lo: float, px_hi: float):
        self.scale = scale
        if scale == "log":
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            pad = 0.5 if self.lo == 0 else abs(self.lo) * 0.1 + 1e-12
            self.lo -= pad
            self.hi += pad
        self.px_lo, self.px_hi = px_lo, px_hi

    def to_px(self, value: float) -> float:
        t = (math.log10(value) if self.scale == "log" else value)
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def data_range(self) -> tuple[float, float]:
        if self.scale == "log":
            return 10.0 ** self.lo, 10.0 ** self.hi
        return self.lo, self.hi


def emit_svg(series: Sequence[Series], axes: AxesSpec, path: str) -> list[str]:
    """Write a line plot to ``path``; returns warning strings (may be empty)."""
    warnings: list[str] = []
    cleaned: list[tuple[str, list[float], list[float]]] = []
    for s in series:
        if len(s.xs) != len(s.ys):
            raise ValueError(f"series {s.label!r}: xs and ys lengths differ")
        xs, ys = [], []
        dropped = 0
        for x, y in zip(s.xs, s.ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                dropped += 1
                continue
            if axes.x_scale == "log" and x <= 0:
                dropped += 1
                continue
            if axes.y_scale == "log" and y <= 0:
                dropped += 1
                continue
            xs.append(float(x))
            ys.append(float(y))
        if dropped:
            warnings.append(f"series {s.label!r}: dropped {dropped} point(s) "
                            f"not representable on the chosen scales")
        if xs:
            cleaned.append((s.label, xs, ys))
        else:
            warnings.append(f"series {s.label!r}: no plottable points")

    all_x = [x for _, xs, _ in cleaned for x in xs]
    all_y = [y for _, _, ys in cleaned for y in ys]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.1, 1.0]
        if axes.x_scale == "log":
            all_x = [0.1, 1.0]

    x_axis = _Axis(axes.x_scale, min(all_x), max(all_x), MARGIN_L, WIDTH - MARGIN_R)
    y_axis = _Axis(axes.y_scale, min(all_y), max(all_y), HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{_escape(axes.title)}</text>')

    # frame
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
                 f'height="{_fmt(y0 - y1)}" fill="none" stroke="black" stroke-width="1"/>')

    xlo, xhi = x_axis.data_range()
    ylo, yhi = y_axis.data_range()
    x_ticks = _log_ticks(xlo, xhi) if axes.x_scale == "log" else _linear_ticks(xlo, xhi)
    y_ticks = _log_ticks(ylo, yhi) if axes.y_scale == "log" else _linear_ticks(ylo, yhi)
    for t in x_ticks:
        px = x_axis.to_px(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                     f'y2="{_fmt(y0 + 5)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 20)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_escape(_tick_label(t))}</text>')
    for t in y_ticks:
        py = y_axis.to_px(t)
        parts.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
                     f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_escape(_tick_label(t))}</text>')
        parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" '
                     f'y2="{_fmt(py)}" stroke="#dddddd" stroke-width="0.5"/>')

    if axes.x_label:
        parts.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(HEIGHT - 14)}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                     f'{_escape(axes.x_label)}</text>')
    if axes.y_label:
        cx, cy = 18.0, (y0 + y1) / 2
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13" '
                     f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
                     f'{_escape(axes.y_label)}</text>')

    for i, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(x_axis.to_px(x))},{_fmt(y_axis.to_px(y))}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')

    # legend, top right inside the frame
    for i, (label, _, _) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        ly = y1 + 16 + 18 * i
        parts.append(f'<line x1="{_fmt(x1 - 150)}" y1="{_fmt(ly)}" x2="{_fmt(x1 - 120)}" '
                     f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(x1 - 114)}" y="{_fmt(ly + 4)}" '
                     f'font-family="sans-serif" font-size="12">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return warnings
