"""Self-contained SVG timing diagrams for executions.

One lane per signal in canonical (sorted name) order.  Values are drawn as a
stepped line with X at mid-level; intervals at X are shaded red, sensitivity
windows blue.  Output is deterministic for identical inputs.  A render
formats each distinct time as an x-coordinate once, however many lanes,
grid lines and rectangles share it.
"""

from __future__ import annotations

import math
from typing import Iterable

from .analysis import SensitivityWindow
from .prs import Value
from .sim import Execution

LANE_H = 26
WAVE_H = 14
LABEL_W = 110
PLOT_W = 880
MARGIN = 12
AXIS_H = 26

X_FILL = "#e63329"
WINDOW_FILL = "#4f81ff"
LINE = "#111111"
GRID = "#d8d8d8"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _tick_step(span: float) -> float:
    """The grid step for an axis of length ``span`` > 0: the least of 1, 2,
    5 and 10 times a power of ten that is at least a tenth of the span."""
    raw = span / 10.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _segments(trace, horizon: float):
    cur_t, cur_v = 0.0, trace.initial
    for t, v in trace.transitions:
        yield cur_t, t, cur_v
        cur_t, cur_v = t, v
    yield cur_t, horizon, cur_v


class _Coords(dict):
    """The formatted x-coordinate of each time, formatted at its first lookup."""

    def __init__(self, sx: float):
        super().__init__()
        self.sx = sx

    def __missing__(self, t: float) -> str:
        x = self[t] = _fmt(LABEL_W + MARGIN + t * self.sx)
        return x


def render_waveform(
    execution: Execution,
    windows: Iterable[SensitivityWindow] = (),
    monitored: Iterable[str] = (),
) -> str:
    """Render the execution as an SVG document string.

    Each distinct time is formatted as an x-coordinate once per render
    (``_Coords``), shared by the grid, the windows, the X intervals and the
    value lines of every lane, and each lane's three levels once per lane.
    """
    names = sorted(execution.traces)
    horizon = execution.horizon if execution.horizon > 0 else 1.0
    monitored = frozenset(monitored)
    win_by_sig: dict[str, list[SensitivityWindow]] = {}
    for w in windows:
        win_by_sig.setdefault(w.signal, []).append(w)

    width = LABEL_W + PLOT_W + 2 * MARGIN
    height = 2 * MARGIN + LANE_H * len(names) + AXIS_H
    sx = PLOT_W / horizon
    xs = _Coords(sx)

    def px(t: float) -> float:
        return LABEL_W + MARGIN + t * sx

    def rect(a: float, b: float, top: float, fill: str, opacity: str) -> str:
        return (
            f'<rect x="{xs[a]}" y="{top - 2}" width="{_fmt(px(b) - px(a))}" '
            f'height="{WAVE_H + 4}" fill="{fill}" fill-opacity="{opacity}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # time grid and axis; the slack absorbs the rounding of the repeated
    # sum, and is relative to the step so that no tick past T is drawn
    step = _tick_step(horizon)
    axis_y = MARGIN + LANE_H * len(names) + 14
    tick = 0.0
    while tick <= horizon + step * 1e-9:
        x = xs[min(tick, horizon)]
        parts.append(f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{axis_y - 10}" stroke="{GRID}" stroke-width="1"/>')
        parts.append(f'<text x="{x}" y="{axis_y}" text-anchor="middle">{_fmt(tick)}</text>')
        tick += step

    for lane, name in enumerate(names):
        top = MARGIN + lane * LANE_H + 4
        trace = execution.traces[name]
        label = name + (" *" if name in monitored else "")
        parts.append(
            f'<text x="{LABEL_W + MARGIN - 8}" y="{top + WAVE_H - 2}" text-anchor="end">{label}</text>'
        )
        # sensitivity windows under the wave
        for w in sorted(win_by_sig.get(name, ()), key=lambda w: w.start):
            parts.append(rect(w.start, min(w.end, horizon), top, WINDOW_FILL, "0.30"))
        segments = list(_segments(trace, horizon))
        # X intervals shaded red
        for a, b, v in segments:
            if v is Value.X and b > a:
                parts.append(rect(a, min(b, horizon), top, X_FILL, "0.35"))
        # stepped value line: a level per value, a vertical step at each change
        level = {Value.ONE: _fmt(top), Value.ZERO: _fmt(top + WAVE_H), Value.X: _fmt(top + WAVE_H / 2.0)}
        a, b, v = segments[0]
        y = level[v]
        points = [f"{xs[a]},{y}", f"{xs[min(b, horizon)]},{y}"]
        for a, b, v in segments[1:]:
            xa, prev_y, y = xs[a], y, level[v]
            points += (f"{xa},{prev_y}", f"{xa},{y}", f"{xs[min(b, horizon)]},{y}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{LINE}" stroke-width="1.3"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
