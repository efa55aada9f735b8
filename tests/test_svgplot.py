"""Standalone SVG line plots on degenerate curves."""

import xml.etree.ElementTree as ET

import pytest

from binsurv.svgplot import line_plot_svg


def plot(path, x, ys):
    line_plot_svg(path, x, ("curve", ys), title="Title", xlabel="time", ylabel="value")
    return path.read_text(encoding="utf-8")


def test_empty_plot_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="plot needs at least one point"):
        plot(tmp_path / "empty.svg", [], [])
    assert not (tmp_path / "empty.svg").exists()


@pytest.mark.parametrize("x, ys", [
    ([2.0], [0.5]),
    ([0.0, 1.0, 2.0], [0.3, 0.3, 0.3]),
], ids=["one-point", "flat"])
def test_degenerate_curve_is_well_formed(tmp_path, x, ys):
    # both ranges are widened before the ticks are placed, so no coordinate
    # or tick label divides by a zero span
    text = plot(tmp_path / "curve.svg", x, ys)
    assert ET.fromstring(text).tag.endswith("svg")
    assert "nan" not in text.lower()
    assert "inf" not in text.lower()
