import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import blo
from blo.svgplot import PALETTE, AxesSpec, Series, emit_svg


def render(tmp_path, series, axes, name="plot.svg"):
    path = tmp_path / name
    warnings = emit_svg(series, axes, path)
    return path.read_text(), warnings


class TestEmitSvg:
    def test_two_point_series_is_one_polyline(self, tmp_path):
        text, warnings = render(
            tmp_path, [Series("run", [0.0, 1.0], [1.0, 10.0])], AxesSpec())
        assert warnings == []
        polys = re.findall(r'<polyline points="([^"]+)"', text)
        assert len(polys) == 1
        assert len(polys[0].split()) == 2
        for pair in polys[0].split():
            px, py = pair.split(",")
            float(px), float(py)

    def test_nonpositive_dropped_on_log_axis(self, tmp_path):
        s = Series("loss", [0.0, 1.0, 2.0, 3.0], [1.0, 0.0, -2.0, 4.0])
        text, warnings = render(tmp_path, [s], AxesSpec(y_scale="log"))
        assert warnings == ["series 'loss': dropped 2 point(s) "
                            "not representable on the chosen scales"]
        (poly,) = re.findall(r'<polyline points="([^"]+)"', text)
        assert len(poly.split()) == 2

    def test_non_finite_dropped_on_any_axis(self, tmp_path):
        s = Series("a", [0.0, 1.0, 2.0], [1.0, math.nan, math.inf])
        _, warnings = render(tmp_path, [s],
                             AxesSpec(x_scale="linear", y_scale="linear"))
        assert len(warnings) == 1 and "dropped 2 point(s)" in warnings[0]

    def test_fully_empty_series_still_renders_file(self, tmp_path):
        s = Series("bad", [1.0, 2.0], [-1.0, -2.0])
        text, warnings = render(tmp_path, [s], AxesSpec(y_scale="log"))
        assert "series 'bad': no plottable points" in warnings
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "<polyline" not in text

    def test_deterministic_bytes(self, tmp_path):
        series = [Series("a", list(range(50)), [1.0 / (k + 1) for k in range(50)]),
                  Series("b", list(range(50)), [2.0 ** -k for k in range(50)])]
        axes = AxesSpec(x_label="iteration", y_label="residual", title="decay")
        a, _ = render(tmp_path, series, axes, "a.svg")
        b, _ = render(tmp_path, series, axes, "b.svg")
        assert a == b

    def test_length_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError, match="lengths differ"):
            emit_svg([Series("a", [1.0, 2.0], [1.0])], AxesSpec(),
                     tmp_path / "x.svg")

    def test_labels_and_title_escaped(self, tmp_path):
        axes = AxesSpec(x_label="k<10", y_label="a&b", title="x > y",
                        y_scale="linear")
        text, _ = render(tmp_path, [Series("s", [0.0, 1.0], [0.0, 1.0])], axes)
        assert "k&lt;10" in text
        assert "a&amp;b" in text
        assert "x &gt; y" in text
        assert "k<10" not in text

    def test_series_colors_cycle_through_palette(self, tmp_path):
        series = [Series(f"s{i}", [0.0, 1.0], [1.0, 2.0]) for i in range(3)]
        text, _ = render(tmp_path, series, AxesSpec(y_scale="linear"))
        for i in range(3):
            assert f'stroke="{PALETTE[i]}"' in text

    def test_legend_lists_every_series(self, tmp_path):
        series = [Series("first", [0.0, 1.0], [1.0, 2.0]),
                  Series("second", [0.0, 1.0], [2.0, 1.0])]
        text, _ = render(tmp_path, series, AxesSpec(y_scale="linear"))
        assert ">first</text>" in text
        assert ">second</text>" in text

    def test_log_axis_has_decade_ticks(self, tmp_path):
        s = Series("r", [0.0, 1.0, 2.0], [1e-6, 1e-3, 1.0])
        text, _ = render(tmp_path, [s], AxesSpec(y_scale="log"))
        assert ">1.0e-06<" in text or ">1.0e-03<" in text

    def test_log_axis_without_a_decade_ticks_its_ends(self, tmp_path):
        s = Series("r", [0.0, 1.0], [2.0, 5.0])
        text, _ = render(tmp_path, [s], AxesSpec(y_scale="log"))
        # y ticks are the only <line>s that end at the frame's left edge
        ys = re.findall(r'<line x1="67.00" y1="([^"]+)" x2="72.00"', text)
        assert ys == ["424.00", "40.00"]

    def test_linear_tick_labels_carry_no_summation_error(self, tmp_path):
        s = Series("f1", [0.0, 1.0], [0.93, 0.948])
        text, _ = render(tmp_path, [s], AxesSpec(y_scale="linear"))
        labels = re.findall(r'text-anchor="end" font-family="sans-serif" '
                            r'font-size="11">([^<]+)<', text)
        assert labels == ["0.93", "0.935", "0.94", "0.945"]
        assert "e-01" not in text

    def test_linear_axis_near_1e16_returns(self, tmp_path):
        # the step 1.0 is half the spacing of floats at 1e16, so a tick walk
        # that adds the step to a running sum never leaves the range, and its
        # list grows without bound; a subprocess with a short timeout fails
        # that walk instead of hanging the suite
        path = tmp_path / "big.svg"
        script = ("import sys; from blo.svgplot import AxesSpec, Series, emit_svg; "
                  "emit_svg([Series('big', [0.0, 1.0], [1e16, 1e16 + 4])], "
                  "AxesSpec(x_scale='linear', y_scale='linear'), sys.argv[1])")
        env = dict(os.environ, PYTHONPATH=str(Path(blo.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                       timeout=10)
        assert ET.parse(path).getroot().tag.endswith("svg")

    def test_nonpositive_x_dropped_on_log_x_axis(self, tmp_path):
        s = Series("a", [-1.0, 0.0, 1.0, 10.0], [1.0, 2.0, 3.0, 4.0])
        text, warnings = render(tmp_path, [s], AxesSpec(x_scale="log", y_scale="linear"))
        assert warnings == ["series 'a': dropped 2 point(s) "
                            "not representable on the chosen scales"]
        (poly,) = re.findall(r'<polyline points="([^"]+)"', text)
        assert len(poly.split()) == 2

    def test_nothing_plottable_on_log_x_axis(self, tmp_path):
        s = Series("bad", [0.0, -1.0], [1.0, 2.0])
        text, warnings = render(tmp_path, [s], AxesSpec(x_scale="log"))
        assert "series 'bad': no plottable points" in warnings
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
        assert "<polyline" not in text

    def test_degenerate_range_handled(self, tmp_path):
        # constant series must not divide by a zero span
        text, warnings = render(tmp_path,
                                [Series("flat", [0.0, 1.0], [5.0, 5.0])],
                                AxesSpec(y_scale="linear"))
        assert warnings == []
        assert "<polyline" in text

    def test_axes_scale_validated(self):
        with pytest.raises(ValueError):
            AxesSpec(y_scale="cubic")


def golden_figure():
    """Nine plotted series, so the palette wraps, and every drop rule.

    Series "mixed" holds a nan, an inf and a point that is non-positive on
    both axes; series "void" has no point that any scale can plot.
    """
    xs = [float(k + 1) for k in range(40)]
    series = [Series(f"s{i} <&>", xs, [(i + 1) * 10.0 ** (-k / 8.0) for k in range(40)])
              for i in range(8)]
    series.append(Series("mixed", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                         [-1.0, 2.0, math.nan, 3.0, math.inf, 0.5]))
    series.append(Series("void", [1.0, math.nan, 2.0], [math.nan, 1.0, -math.inf]))
    return series


# recorded before emit_svg's rewrite; a figure must keep every byte
GOLDEN_SVG = {
    ("linear", "linear"):
        "892b991a4366c800648ea96df1891c04e929e907ab4e486383dcd3f897fc20eb",
    ("linear", "log"):
        "481d2ef4ffe6ac469f1dcadc13eec1fcaead8b2a21027d00c3e1fc9acb228575",
    ("log", "linear"):
        "611d2900dd3cd5d95484c4d15585533d75d060cf7be3283b7780ff7a9399d255",
    ("log", "log"):
        "e7cdf86603f17f925b7bcde18c52bb0022f3c976c0b29d8caec21a30622840a8",
}


@pytest.mark.parametrize("scales", sorted(GOLDEN_SVG))
def test_golden_svg_bytes(tmp_path, scales):
    x_scale, y_scale = scales
    axes = AxesSpec(x_label="k & <iter>", y_label="r < 1 & r > 0",
                    x_scale=x_scale, y_scale=y_scale, title="decay <&> drops")
    path = tmp_path / "golden.svg"
    warnings = emit_svg(golden_figure(), axes, str(path))
    mixed_drops = 3 if "log" in scales else 2
    assert warnings == [
        f"series 'mixed': dropped {mixed_drops} point(s) not representable on the chosen scales",
        "series 'void': dropped 3 point(s) not representable on the chosen scales",
        "series 'void': no plottable points",
    ]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SVG[scales]
