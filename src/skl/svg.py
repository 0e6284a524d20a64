"""Dependency-free SVG rendering for the report commands.

Charts are formatted from numpy arrays, one ``%`` template per item: the
ticks, polyline points, heatmap cells and color-bar steps of a run are
filled by one ``%`` per block of rows over a flat argument tuple.  Repeated
runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 160
MARGIN_TOP = 60
MARGIN_BOTTOM = 70

#: Plot box shared by every chart.
PLOT_LEFT = MARGIN_LEFT
PLOT_RIGHT = WIDTH - MARGIN_RIGHT
PLOT_TOP = MARGIN_TOP
PLOT_BOTTOM = HEIGHT - MARGIN_BOTTOM
PLOT_WIDTH = PLOT_RIGHT - PLOT_LEFT
PLOT_HEIGHT = PLOT_BOTTOM - PLOT_TOP

COLORS = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
]

#: White-to-red ramp for error heatmaps.
HEAT_STOPS = [
    (1.0, 1.0, 1.0),
    (1.0, 0.86, 0.57),
    (0.98, 0.55, 0.32),
    (0.84, 0.19, 0.15),
    (0.5, 0.0, 0.1),
]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&#39;")
    )


def _heat_rgb(t: np.ndarray) -> np.ndarray:
    """Ramp colors for t clipped to [0, 1] as 0xRRGGBB ints (one ``%06x``
    argument each); a channel is round-half-even of 255 * (c0 + (c1 - c0) * frac)."""
    if np.isnan(t).any():
        raise ValueError("heat ramp position is NaN")
    pos = np.clip(t, 0.0, 1.0) * (len(HEAT_STOPS) - 1)
    idx = np.minimum(pos.astype(int), len(HEAT_STOPS) - 2)
    frac = (pos - idx)[..., None]
    lo, hi = np.array(HEAT_STOPS)[idx], np.array(HEAT_STOPS)[idx + 1]
    return np.round(255 * (lo + (hi - lo) * frac)).astype(int) @ np.array([1 << 16, 1 << 8, 1])


def _to_px(values: np.ndarray, lo: float, hi: float, start: float, length: float) -> np.ndarray:
    """Pixels of ``values`` on an axis mapping [lo, hi] onto start + [0, length]."""
    return start + (values - lo) / (hi - lo) * length


def format_rows(template: str, columns, sep: str = "\n") -> str:
    """``template`` once per index of the equal-length ``columns``, joined by
    ``sep``; one ``%`` fills each block of rows from the columns in turn."""
    parts = []
    blocks = len(columns[0]) // 512 + 1  # small blocks: less memory, and faster
    for block in zip(*[np.array_split(np.asarray(column), blocks) for column in columns]):
        args = [0] * (len(block) * len(block[0]))
        for k, column in enumerate(block):
            args[k :: len(block)] = column.tolist()
        parts.append(sep.join([template] * len(block[0])) % tuple(args))
    return sep.join(parts)


def _header(title: str) -> list[str]:
    """Opening tag, white background and centered title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="32" text-anchor="middle" font-size="20" '
        f'font-family="Arial">{_escape(title)}</text>',
    ]


def _x_tick(x: np.ndarray, value: np.ndarray) -> tuple[str, list]:
    """Template and columns of ticks under the plot box at pixels ``x``."""
    return (
        f'<line x1="%.2f" y1="{PLOT_BOTTOM}" x2="%.2f" y2="{PLOT_BOTTOM + 6}" '
        'stroke="#000000" stroke-width="1"/>\n'
        f'<text x="%.2f" y="{PLOT_BOTTOM + 24}" text-anchor="middle" font-size="12" '
        'font-family="Arial">%.2g</text>',
        [x, x, x, value],
    )


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    """The x label under the plot box and the rotated y label left of it."""
    mid_y = (PLOT_TOP + PLOT_BOTTOM) / 2
    return [
        f'<text x="{(PLOT_LEFT + PLOT_RIGHT) / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-size="14" font-family="Arial">{_escape(x_label)}</text>',
        f'<text x="20" y="{mid_y:.1f}" text-anchor="middle" '
        f'font-size="14" font-family="Arial" '
        f'transform="rotate(-90 20 {mid_y:.1f})">{_escape(y_label)}</text>',
    ]


def render_line_chart(
    xs: Sequence[float],
    series: Sequence[Tuple[str, Sequence[float]]],
    title: str,
    x_label: str = "x",
    y_label: str = "value",
) -> str:
    """Multi-series line chart over a shared abscissa, decile x ticks."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two abscissa points")
    if not series:
        raise ValueError("no series to plot")
    if not np.isfinite(xs).all():
        raise ValueError("abscissa has non-finite values")
    for label, ys in series:
        if np.shape(ys) != xs.shape:
            raise ValueError(f"series {label!r} length does not match the abscissa")
        if not np.isfinite(ys).all():
            raise ValueError(f"series {label!r} has non-finite values")

    curves = np.array([ys for _, ys in series], dtype=float)
    y_min = min(0.0, float(curves.min()))
    y_max = float(curves.max())
    if y_max <= y_min:
        y_max = y_min + 1.0
    y_max += 0.05 * (y_max - y_min)
    x_min, x_max = float(xs[0]), float(xs[-1])

    lines = _header(title)

    # Horizontal grid with 6 labeled levels.
    levels = y_min + (y_max - y_min) * np.arange(7) / 6
    y = _to_px(levels, y_min, y_max, PLOT_BOTTOM, -PLOT_HEIGHT)
    level = (
        f'<line x1="{PLOT_LEFT}" y1="%.2f" x2="{PLOT_RIGHT}" y2="%.2f" '
        'stroke="#d9d9d9" stroke-width="1"/>\n'
        f'<text x="{PLOT_LEFT - 8}" y="%.2f" text-anchor="end" font-size="12" '
        'font-family="Arial">%.3g</text>'
    )
    lines.append(format_rows(level, [y, y, y + 4, levels]))

    lines.append(
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_BOTTOM}" x2="{PLOT_RIGHT}" y2="{PLOT_BOTTOM}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_TOP}" x2="{PLOT_LEFT}" y2="{PLOT_BOTTOM}" '
        'stroke="#000000" stroke-width="2"/>'
    )

    # Decile ticks along x.
    ticks = x_min + (x_max - x_min) * np.arange(11) / 10
    lines.append(format_rows(*_x_tick(_to_px(ticks, x_min, x_max, PLOT_LEFT, PLOT_WIDTH), ticks)))
    lines.extend(_axis_labels(x_label, y_label))

    legend_x = PLOT_RIGHT + 16
    legend_y = PLOT_TOP + 16
    x_px = _to_px(xs, x_min, x_max, PLOT_LEFT, PLOT_WIDTH)
    y_px = _to_px(curves, y_min, y_max, PLOT_BOTTOM, -PLOT_HEIGHT)
    for idx, ((label, _), y) in enumerate(zip(series, y_px)):
        color = COLORS[idx % len(COLORS)]
        points = format_rows("%.2f,%.2f", [x_px, y], sep=" ")
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = legend_y + idx * 24
        lines.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{legend_x + 30}" y="{ly + 4}" text-anchor="start" font-size="13" '
            f'font-family="Arial">{_escape(label)}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_heatmap(
    values: np.ndarray,
    title: str,
    x_label: str = "y1",
    y_label: str = "y2",
    lo1: float = 0.0,
    hi1: float = 1.0,
    lo2: float = 0.0,
    hi2: float = 1.0,
) -> str:
    """Cell heatmap of a matrix indexed as values[i, j] = f(x_i, y_j).

    The first axis runs left to right, the second bottom to top, so the
    picture matches the usual orientation of the unit square.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("heatmap needs a nonempty 2-d array")
    if not np.isfinite(values).all():
        raise ValueError("heatmap values are not finite")
    n1, n2 = values.shape
    v_min = float(values.min())
    v_max = float(values.max())
    spread = v_max - v_min if v_max > v_min else 1.0

    lines = _header(title)

    # Cell (i, j) sits at x[i], y[j]; row j = 0 sits at the bottom edge.
    cell_w = PLOT_WIDTH / n1
    cell_h = PLOT_HEIGHT / n2
    x = np.repeat(PLOT_LEFT + np.arange(n1) * cell_w, n2)
    y = np.tile(PLOT_BOTTOM - (np.arange(n2) + 1) * cell_h, n1)
    size = f'width="{cell_w + 0.5:.2f}" height="{cell_h + 0.5:.2f}"'
    cell = f'<rect x="%.2f" y="%.2f" {size} fill="#%06x"/>'
    lines.append(format_rows(cell, [x, y, _heat_rgb((values - v_min) / spread).ravel()]))

    # Decile ticks on both axes, each x tick followed by its y tick.
    frac = np.arange(11) / 10
    x_tick, columns = _x_tick(PLOT_LEFT + frac * PLOT_WIDTH, lo1 + (hi1 - lo1) * frac)
    y = PLOT_BOTTOM - frac * PLOT_HEIGHT
    y_tick = (
        f'\n<line x1="{PLOT_LEFT - 6}" y1="%.2f" x2="{PLOT_LEFT}" y2="%.2f" '
        'stroke="#000000" stroke-width="1"/>\n'
        f'<text x="{PLOT_LEFT - 10}" y="%.2f" text-anchor="end" font-size="12" '
        'font-family="Arial">%.2g</text>'
    )
    lines.append(format_rows(x_tick + y_tick, columns + [y, y, y + 4, lo2 + (hi2 - lo2) * frac]))
    lines.extend(_axis_labels(x_label, y_label))

    # Color bar with min/max labels.
    bar_x = PLOT_RIGHT + 30
    bar_w = 22
    steps = 40
    step_h = PLOT_HEIGHT / steps
    s = np.arange(steps)
    step = f'<rect x="{bar_x}" y="%.2f" width="{bar_w}" height="{step_h + 0.5:.2f}" fill="#%06x"/>'
    lines.append(format_rows(step, [PLOT_TOP + s * step_h, _heat_rgb(1.0 - s / (steps - 1))]))
    lines.append(
        f'<text x="{bar_x + bar_w + 6}" y="{PLOT_TOP + 10:.2f}" text-anchor="start" '
        f'font-size="12" font-family="Arial">{v_max:.3g}</text>'
    )
    lines.append(
        f'<text x="{bar_x + bar_w + 6}" y="{PLOT_BOTTOM:.2f}" text-anchor="start" '
        f'font-size="12" font-family="Arial">{v_min:.3g}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(path, content: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(content)
