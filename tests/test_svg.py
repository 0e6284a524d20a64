import numpy as np
import pytest
from conftest import assert_same_text

from skl import svg
from skl.svg import render_heatmap, render_line_chart, write_svg


def test_line_chart_structure():
    xs = np.linspace(0.0, 1.0, 21)
    series = [("f", np.sin(xs)), ("g", np.cos(xs))]
    doc = render_line_chart(xs, series, title="demo", x_label="x", y_label="v")
    assert doc.startswith("<svg")
    assert 'xmlns="http://www.w3.org/2000/svg"' in doc
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<polyline") == 2
    assert "demo" in doc and ">f<" in doc and ">g<" in doc
    # Decile ticks along x.
    assert doc.count('text-anchor="middle"') >= 11


def test_line_chart_deterministic():
    xs = np.linspace(0.0, 1.0, 11)
    series = [("a", xs ** 2)]
    assert render_line_chart(xs, series, title="t") == render_line_chart(
        xs, series, title="t"
    )


def test_line_chart_rejects_bad_input():
    with pytest.raises(ValueError):
        render_line_chart([0.0], [("a", [1.0])], title="t")
    with pytest.raises(ValueError):
        render_line_chart([0.0, 1.0], [], title="t")


def test_heatmap_structure():
    values = np.arange(12, dtype=float).reshape(3, 4)
    doc = render_heatmap(values, title="heat")
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    # One rect per cell plus the color-bar strip and frame.
    assert doc.count("<rect") >= 12 + 40
    assert "heat" in doc


def test_heatmap_escapes_markup():
    values = np.ones((2, 2))
    doc = render_heatmap(values, title="a < b & c")
    assert "a &lt; b &amp; c" in doc
    assert "a < b" not in doc


def test_write_svg_newlines(tmp_path):
    path = tmp_path / "pic.svg"
    write_svg(path, "<svg>\n</svg>\n")
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"</svg>\n")


# ---------------------------------------------------------------------------
# Byte equivalence with the scalar per-item renderers.  These are the
# per-cell, per-point and per-tick loops the array code replaced, kept here
# as the reference: every output must match them byte for byte.


def _ref_heat_color(t):
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(svg.HEAT_STOPS) - 1)
    idx = min(int(pos), len(svg.HEAT_STOPS) - 2)
    frac = pos - idx
    r0, g0, b0 = svg.HEAT_STOPS[idx]
    r1, g1, b1 = svg.HEAT_STOPS[idx + 1]
    r = round(255 * (r0 + (r1 - r0) * frac))
    g = round(255 * (g0 + (g1 - g0) * frac))
    b = round(255 * (b0 + (b1 - b0) * frac))
    return f"#{r:02x}{g:02x}{b:02x}"


def _ref_x_tick(x, value):
    return [
        f'<line x1="{x:.2f}" y1="{svg.PLOT_BOTTOM}" x2="{x:.2f}" y2="{svg.PLOT_BOTTOM + 6}" '
        'stroke="#000000" stroke-width="1"/>',
        f'<text x="{x:.2f}" y="{svg.PLOT_BOTTOM + 24}" text-anchor="middle" font-size="12" '
        f'font-family="Arial">{value:.2g}</text>',
    ]


def _ref_line_chart(xs, series, title, x_label="x", y_label="value"):
    L, R, T, B = svg.PLOT_LEFT, svg.PLOT_RIGHT, svg.PLOT_TOP, svg.PLOT_BOTTOM
    xs = np.asarray(xs, dtype=float)
    all_values = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    y_min = min(0.0, float(all_values.min()))
    y_max = float(all_values.max())
    if y_max <= y_min:
        y_max = y_min + 1.0
    y_max += 0.05 * (y_max - y_min)
    x_min, x_max = float(xs[0]), float(xs[-1])

    def x_to_px(x):
        return L + (x - x_min) / (x_max - x_min) * svg.PLOT_WIDTH

    def y_to_px(y):
        return B - (y - y_min) / (y_max - y_min) * svg.PLOT_HEIGHT

    lines = svg._header(title)
    for i in range(7):
        value = y_min + (y_max - y_min) * i / 6
        y = y_to_px(value)
        lines.append(
            f'<line x1="{L}" y1="{y:.2f}" x2="{R}" y2="{y:.2f}" stroke="#d9d9d9" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{L - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="Arial">{value:.3g}</text>'
        )
    lines.append(f'<line x1="{L}" y1="{B}" x2="{R}" y2="{B}" stroke="#000000" stroke-width="2"/>')
    lines.append(f'<line x1="{L}" y1="{T}" x2="{L}" y2="{B}" stroke="#000000" stroke-width="2"/>')
    for i in range(11):
        value = x_min + (x_max - x_min) * i / 10
        lines.extend(_ref_x_tick(x_to_px(value), value))
    lines.extend(svg._axis_labels(x_label, y_label))
    for idx, (label, ys) in enumerate(series):
        color = svg.COLORS[idx % len(svg.COLORS)]
        points = " ".join(
            f"{x_to_px(float(x)):.2f},{y_to_px(float(y)):.2f}"
            for x, y in zip(xs, np.asarray(ys, dtype=float))
        )
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>')
        ly = T + 16 + idx * 24
        lines.append(
            f'<line x1="{R + 16}" y1="{ly}" x2="{R + 40}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{R + 46}" y="{ly + 4}" text-anchor="start" font-size="13" '
            f'font-family="Arial">{svg._escape(label)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ref_heatmap(values, title, lo1=0.0, hi1=1.0, lo2=0.0, hi2=1.0):
    L, R, T, B = svg.PLOT_LEFT, svg.PLOT_RIGHT, svg.PLOT_TOP, svg.PLOT_BOTTOM
    values = np.asarray(values, dtype=float)
    n1, n2 = values.shape
    v_min = float(values.min())
    v_max = float(values.max())
    spread = v_max - v_min if v_max > v_min else 1.0
    lines = svg._header(title)
    cell_w = svg.PLOT_WIDTH / n1
    cell_h = svg.PLOT_HEIGHT / n2
    for i in range(n1):
        x = L + i * cell_w
        for j in range(n2):
            y = B - (j + 1) * cell_h
            color = _ref_heat_color((values[i, j] - v_min) / spread)
            lines.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}"/>'
            )
    for i in range(11):
        frac = i / 10
        lines.extend(_ref_x_tick(L + frac * svg.PLOT_WIDTH, lo1 + (hi1 - lo1) * frac))
        y = B - frac * svg.PLOT_HEIGHT
        value2 = lo2 + (hi2 - lo2) * frac
        lines.append(
            f'<line x1="{L - 6}" y1="{y:.2f}" x2="{L}" y2="{y:.2f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{L - 10}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="Arial">{value2:.2g}</text>'
        )
    lines.extend(svg._axis_labels("y1", "y2"))
    step_h = svg.PLOT_HEIGHT / 40
    for s in range(40):
        lines.append(
            f'<rect x="{R + 30}" y="{T + s * step_h:.2f}" width="22" '
            f'height="{step_h + 0.5:.2f}" fill="{_ref_heat_color(1.0 - s / 39)}"/>'
        )
    lines.append(
        f'<text x="{R + 58}" y="{T + 10:.2f}" text-anchor="start" '
        f'font-size="12" font-family="Arial">{v_max:.3g}</text>'
    )
    lines.append(
        f'<text x="{R + 58}" y="{B:.2f}" text-anchor="start" '
        f'font-size="12" font-family="Arial">{v_min:.3g}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _channel_ties():
    """Ramp positions where 255 * channel lands exactly halfway between ints."""
    stops, last = svg.HEAT_STOPS, len(svg.HEAT_STOPS) - 1
    ties = set()
    for idx in range(last):
        for c0, c1 in zip(stops[idx], stops[idx + 1]):
            for n in range(255) if c0 != c1 else ():
                t = (idx + ((n + 0.5) / 255 - c0) / (c1 - c0)) / last
                for u in (t + np.arange(-4, 5) * np.spacing(t)).tolist():
                    pos = min(max(u, 0.0), 1.0) * last
                    k = min(int(pos), last - 1)
                    channels = zip(stops[k], stops[k + 1])
                    if any((255 * (a + (b - a) * (pos - k))) % 1 == 0.5 for a, b in channels):
                        ties.add(min(max(u, 0.0), 1.0))
    return np.array(sorted(ties))


def _ramp_positions():
    stops = np.arange(len(svg.HEAT_STOPS)) / (len(svg.HEAT_STOPS) - 1)
    near = np.concatenate([np.nextafter(stops, -1.0), np.nextafter(stops, 2.0)])
    rng = np.random.default_rng(12)
    return np.concatenate([stops, near, _channel_ties(), rng.random(200), [-0.5, -0.0, 1.5]])


def test_heat_ramp_matches_scalar_ramp():
    t = _ramp_positions()
    assert len(_channel_ties()) > 0
    expected = [_ref_heat_color(float(v)) for v in t]
    assert [f"#{c:06x}" for c in svg._heat_rgb(t).tolist()] == expected
    grid = svg._heat_rgb(t[:-3].reshape(1, -1))
    assert grid.shape == (1, len(t) - 3)
    with pytest.raises(ValueError, match="NaN"):
        svg._heat_rgb(np.array([0.5, np.nan]))


@pytest.mark.parametrize(
    "values",
    [
        # t exactly on every ramp stop, and on rounding ties of a channel.
        (np.arange(len(svg.HEAT_STOPS)) / (len(svg.HEAT_STOPS) - 1)).reshape(1, -1),
        np.concatenate([[0.0, 1.0], _channel_ties()]).reshape(-1, 1),
        np.full((3, 4), 2.5),  # constant: the unit-spread branch
        -np.arange(12.0).reshape(4, 3) ** 1.5,
        np.random.default_rng(5).normal(size=(1, 9)),
        np.random.default_rng(6).normal(size=(7, 1)) * 1e-9,
        # With 48 rows, (j + 1) * cell_h and cell_h + j * cell_h print apart.
        np.random.default_rng(4).random((3, 48)),
        # Many 512-row formatting blocks.
        np.random.default_rng(7).random((70, 61)) - 0.3,
    ],
)
def test_heatmap_matches_scalar_renderer(values):
    title = "heat <m>"
    assert_same_text(render_heatmap(values, title=title), _ref_heatmap(values, title=title))


def test_heatmap_axis_ranges_match_scalar_renderer():
    values = np.random.default_rng(8).random((5, 6))
    ranges = dict(lo1=-0.3, hi1=0.7, lo2=0.1, hi2=0.9)
    assert_same_text(render_heatmap(values, "h", **ranges), _ref_heatmap(values, "h", **ranges))


def _pixel_ties(span, length, top):
    """Values in [0, top] whose pixel offset v / span * length lies within a
    few ulps of an odd multiple of 0.125, a two-decimal rounding tie.  Any
    change to the order of the pixel arithmetic shows in their digits."""
    v = np.arange(1, 8 * length, 2) * 0.125 / length * span
    v = np.concatenate([v + k * np.spacing(v) for k in range(-3, 4)])
    return np.sort(v[v <= top])


_XS = np.linspace(0.0, 1.0, 21)
# x spans [0, 0.3]; y spans [0, 0.3], padded by 5% at the top.
_TIE_XS = np.concatenate([[0.0], _pixel_ties(0.3, svg.PLOT_WIDTH, 0.3), [0.3]])
_TIE_YS = np.resize(_pixel_ties(0.3 * 1.05, svg.PLOT_HEIGHT, 0.3), _TIE_XS.size)
_TIE_YS[:2] = 0.0, 0.3


@pytest.mark.parametrize(
    "xs, series",
    [
        (_XS, [("f", np.sin(_XS)), ("g", np.cos(_XS))]),
        (np.linspace(-2.0, 3.0, 7), [("neg", -np.arange(7.0) ** 2)]),
        (np.array([0.0, 1.0]), [("flat", np.zeros(2))]),
        (np.linspace(1.0, 0.0, 11), [("down", np.linspace(1.0, 0.0, 11) ** 3)]),
        (_TIE_XS, [("ties", _TIE_YS)]),
        (np.sort(np.random.default_rng(9).random(5000)), [
            (f"s{k}", np.random.default_rng(k).normal(size=5000) * 10.0 ** k) for k in range(7)
        ]),
    ],
)
def test_line_chart_matches_scalar_renderer(xs, series):
    doc = render_line_chart(xs, series, title="t & u", x_label="x", y_label="v")
    assert_same_text(doc, _ref_line_chart(xs, series, title="t & u", x_label="x", y_label="v"))


def test_line_chart_rejects_non_finite_series():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="'bad'"):
        render_line_chart(xs, [("ok", xs), ("bad", [0.0, 1.0, np.nan, 1.0, 0.0])], title="t")
    with pytest.raises(ValueError, match="'up'"):
        render_line_chart(xs, [("up", np.full(5, np.inf))], title="t")
    with pytest.raises(ValueError, match="abscissa"):
        render_line_chart([0.0, np.nan, 1.0], [("a", [1.0, 2.0, 3.0])], title="t")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_rejects_non_finite_values(bad):
    values = np.ones((3, 3))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="heatmap values"):
        render_heatmap(values, title="t")
