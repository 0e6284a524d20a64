"""Dependency-free SVG rendering for the report commands.

Charts are plain strings assembled deterministically, so repeated runs with
identical inputs produce byte-identical files.
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


def _heat_color(t: float) -> str:
    """Interpolated ramp color for t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(HEAT_STOPS) - 1)
    idx = min(int(pos), len(HEAT_STOPS) - 2)
    frac = pos - idx
    r0, g0, b0 = HEAT_STOPS[idx]
    r1, g1, b1 = HEAT_STOPS[idx + 1]
    r = round(255 * (r0 + (r1 - r0) * frac))
    g = round(255 * (g0 + (g1 - g0) * frac))
    b = round(255 * (b0 + (b1 - b0) * frac))
    return f"#{r:02x}{g:02x}{b:02x}"


def _header(title: str) -> list[str]:
    """Opening tag, white background and centered title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="32" text-anchor="middle" font-size="20" '
        f'font-family="Arial">{_escape(title)}</text>',
    ]


def _x_tick(x: float, value: float) -> list[str]:
    """A tick under the plot box at pixel ``x`` and its label."""
    return [
        f'<line x1="{x:.2f}" y1="{PLOT_BOTTOM}" x2="{x:.2f}" y2="{PLOT_BOTTOM + 6}" '
        'stroke="#000000" stroke-width="1"/>',
        f'<text x="{x:.2f}" y="{PLOT_BOTTOM + 24}" text-anchor="middle" font-size="12" '
        f'font-family="Arial">{value:.2g}</text>',
    ]


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

    all_values = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    y_min = min(0.0, float(all_values.min()))
    y_max = float(all_values.max())
    if y_max <= y_min:
        y_max = y_min + 1.0
    y_max += 0.05 * (y_max - y_min)
    x_min, x_max = float(xs[0]), float(xs[-1])

    def x_to_px(x: float) -> float:
        return PLOT_LEFT + (x - x_min) / (x_max - x_min) * PLOT_WIDTH

    def y_to_px(y: float) -> float:
        return PLOT_BOTTOM - (y - y_min) / (y_max - y_min) * PLOT_HEIGHT

    lines = _header(title)

    # Horizontal grid with 6 labeled levels.
    for i in range(7):
        value = y_min + (y_max - y_min) * i / 6
        y = y_to_px(value)
        lines.append(
            f'<line x1="{PLOT_LEFT}" y1="{y:.2f}" x2="{PLOT_RIGHT}" y2="{y:.2f}" '
            'stroke="#d9d9d9" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{PLOT_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="Arial">{value:.3g}</text>'
        )

    lines.append(
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_BOTTOM}" x2="{PLOT_RIGHT}" y2="{PLOT_BOTTOM}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    lines.append(
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_TOP}" x2="{PLOT_LEFT}" y2="{PLOT_BOTTOM}" '
        'stroke="#000000" stroke-width="2"/>'
    )

    # Decile ticks along x.
    for i in range(11):
        value = x_min + (x_max - x_min) * i / 10
        lines.extend(_x_tick(x_to_px(value), value))
    lines.extend(_axis_labels(x_label, y_label))

    legend_x = PLOT_RIGHT + 16
    legend_y = PLOT_TOP + 16
    for idx, (label, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"series {label!r} length does not match the abscissa")
        color = COLORS[idx % len(COLORS)]
        points = " ".join(
            f"{x_to_px(float(x)):.2f},{y_to_px(float(y)):.2f}" for x, y in zip(xs, ys)
        )
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
    n1, n2 = values.shape
    v_min = float(values.min())
    v_max = float(values.max())
    spread = v_max - v_min if v_max > v_min else 1.0

    lines = _header(title)

    cell_w = PLOT_WIDTH / n1
    cell_h = PLOT_HEIGHT / n2
    for i in range(n1):
        x = PLOT_LEFT + i * cell_w
        for j in range(n2):
            # Row j = 0 sits at the bottom edge.
            y = PLOT_BOTTOM - (j + 1) * cell_h
            color = _heat_color((values[i, j] - v_min) / spread)
            lines.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
            )

    # Decile ticks on both axes.
    for i in range(11):
        frac = i / 10
        lines.extend(_x_tick(PLOT_LEFT + frac * PLOT_WIDTH, lo1 + (hi1 - lo1) * frac))
        y = PLOT_BOTTOM - frac * PLOT_HEIGHT
        value2 = lo2 + (hi2 - lo2) * frac
        lines.append(
            f'<line x1="{PLOT_LEFT - 6}" y1="{y:.2f}" x2="{PLOT_LEFT}" y2="{y:.2f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{PLOT_LEFT - 10}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="Arial">{value2:.2g}</text>'
        )
    lines.extend(_axis_labels(x_label, y_label))

    # Color bar with min/max labels.
    bar_x = PLOT_RIGHT + 30
    bar_w = 22
    steps = 40
    step_h = PLOT_HEIGHT / steps
    for s in range(steps):
        t = 1.0 - s / (steps - 1)
        y = PLOT_TOP + s * step_h
        lines.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" height="{step_h + 0.5:.2f}" '
            f'fill="{_heat_color(t)}"/>'
        )
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
