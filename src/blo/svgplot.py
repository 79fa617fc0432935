"""Minimal deterministic SVG line plots.

Hand-emitted so study figures carry no plotting dependency and are
byte-identical across runs: fixed canvas, fixed palette, coordinates
rounded to two decimals.  A point that is not finite on either axis, or
nonpositive on a log axis, is dropped and reported in a warning string.
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
    # rounding to the step's decimals drops the error of i * step, which
    # would otherwise print 47 * 0.02 = 0.9400000000000001 as 9.4e-01
    digits = max(0, -math.floor(math.log10(step)))
    first, last = math.ceil(lo / step), math.floor((hi + 1e-9 * span) / step)
    return [round(i * step, digits) for i in range(first, last + 1)]


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


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: str, y: str, body: str, size: int, anchor: str | None = "middle",
          extra: str = "") -> str:
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{_escape(body)}</text>')


class _Axis:
    def __init__(self, log: bool, values: list[float], px_lo: float, px_hi: float):
        self.log = log
        lo, hi = min(values), max(values)
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            pad = 0.5 if lo == 0 else abs(lo) * 0.1 + 1e-12
            lo -= pad
            hi += pad
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi
        # the padded range in data units; made here, so it overflows before any tick rule
        self.ends = (10.0 ** lo, 10.0 ** hi) if log else (lo, hi)

    def to_px(self, value: float) -> float:
        t = math.log10(value) if self.log else value
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def ticks(self) -> list[float]:
        return (_log_ticks if self.log else _linear_ticks)(*self.ends)


def emit_svg(series: Sequence[Series], axes: AxesSpec, path: str) -> list[str]:
    """Write a line plot to ``path``; returns warning strings (may be empty)."""
    x_log, y_log = axes.x_scale == "log", axes.y_scale == "log"

    def plottable(x: float, y: float) -> bool:
        return (math.isfinite(x) and math.isfinite(y)
                and (not x_log or x > 0) and (not y_log or y > 0))

    warnings: list[str] = []
    cleaned: list[tuple[str, list[tuple[float, float]], str]] = []  # label, points, colour
    for s in series:
        if len(s.xs) != len(s.ys):
            raise ValueError(f"series {s.label!r}: xs and ys lengths differ")
        points = [(float(x), float(y)) for x, y in zip(s.xs, s.ys) if plottable(x, y)]
        dropped = len(s.xs) - len(points)
        if dropped:
            warnings.append(f"series {s.label!r}: dropped {dropped} point(s) "
                            f"not representable on the chosen scales")
        if points:
            cleaned.append((s.label, points, PALETTE[len(cleaned) % len(PALETTE)]))
        else:
            warnings.append(f"series {s.label!r}: no plottable points")

    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    all_x = [x for _, points, _ in cleaned for x, _ in points] or [0.1 if x_log else 0.0, 1.0]
    all_y = [y for _, points, _ in cleaned for _, y in points] or [0.1, 1.0]
    x_axis = _Axis(x_log, all_x, x0, x1)
    y_axis = _Axis(y_log, all_y, y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>',
    ]
    if axes.title:
        parts.append(_text(f"{WIDTH / 2:.0f}", "24", axes.title, 16))
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
                 f'height="{_fmt(y0 - y1)}" fill="none" stroke="black" stroke-width="1"/>')

    for t in x_axis.ticks():
        px = x_axis.to_px(t)
        parts.append(_line(px, y0, px, y0 + 5, "black", "1"))
        parts.append(_text(_fmt(px), _fmt(y0 + 20), _tick_label(t), 11))
    for t in y_axis.ticks():
        py = y_axis.to_px(t)
        parts.append(_line(x0 - 5, py, x0, py, "black", "1"))
        parts.append(_text(_fmt(x0 - 8), _fmt(py + 4), _tick_label(t), 11, "end"))
        parts.append(_line(x0, py, x1, py, "#dddddd", "0.5"))

    if axes.x_label:
        parts.append(_text(_fmt((x0 + x1) / 2), _fmt(HEIGHT - 14), axes.x_label, 13))
    if axes.y_label:
        cx, cy = _fmt(18.0), _fmt((y0 + y1) / 2)
        parts.append(_text(cx, cy, axes.y_label, 13,
                           extra=f' transform="rotate(-90 {cx} {cy})"'))

    for _, points, color in cleaned:
        pts = " ".join(f"{_fmt(x_axis.to_px(x))},{_fmt(y_axis.to_px(y))}" for x, y in points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
    for i, (label, _, color) in enumerate(cleaned):  # legend, top right inside the frame
        ly = y1 + 16 + 18 * i
        parts.append(_line(x1 - 150, ly, x1 - 120, ly, color, "2"))
        parts.append(_text(_fmt(x1 - 114), _fmt(ly + 4), label, 12, None))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return warnings
