import re

from vanspec.svgplot import HEIGHT, Series, line_plot_svg

# the plot frame's edges in pixels: left margin, and top margin plus height
LEFT, BOTTOM = 62, HEIGHT - 46


def _points(svg: str) -> list[list[tuple[float, float]]]:
    """Each polyline's points as (x, y) pixel pairs."""
    return [[tuple(float(v) for v in pt.split(",")) for pt in m.group(1).split()]
            for m in re.finditer(r'<polyline points="([^"]*)"', svg)]


def _tick_labels(svg: str) -> list[str]:
    return re.findall(r'text-anchor="(?:middle|end)">([^<]*)</text>', svg)


def test_ticks_outside_the_plain_range_use_exponent_form():
    svg = line_plot_svg([Series([0.0, 5e4], [2e-4, 8e-4], "a")])
    labels = _tick_labels(svg)
    assert "2e+04" in labels and "0" in labels
    assert "4e-04" in labels


def test_no_plottable_point_draws_an_empty_frame():
    # a log axis with no positive value once failed on log10(0)
    for series, logy in (([], False), ([Series([1.0, 2.0], [0.0, -1.0], "a")], True)):
        svg = line_plot_svg(series, logy=logy)
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")
        assert _points(svg) == [[]] * len(series)


def test_a_single_x_value_sits_on_the_left_edge():
    pts = _points(line_plot_svg([Series([3.0, 3.0], [1.0, 2.0], "a")]))
    assert [x for x, _ in pts[0]] == [LEFT, LEFT]


def test_a_flat_series_sits_on_the_bottom_edge():
    for y in (0.0, 3.0, -2.0):
        pts = _points(line_plot_svg([Series([0.0, 1.0], [y, y], "a")]))
        assert [py for _, py in pts[0]] == [BOTTOM, BOTTOM]
