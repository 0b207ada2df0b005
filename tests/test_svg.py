"""SVG overlay rendering."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from asap.series import Series
from asap.svg import render_overlay


def _polylines(document):
    root = ET.fromstring(document)
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def test_overlay_has_two_polylines_with_matching_point_counts():
    raw = Series.from_values(np.sin(np.arange(40.0)))
    smoothed = Series.from_values(np.sin(np.arange(35.0)) * 0.5)
    doc = render_overlay(raw, smoothed, width=400)

    root = ET.fromstring(doc)
    assert root.get("width") == "400"
    assert root.get("height") == "200"  # default: half the width, floor 120

    lines = _polylines(doc)
    assert len(lines) == 2
    assert len(lines[0].get("points").split()) == 40
    assert len(lines[1].get("points").split()) == 35


def test_overlay_draws_smoothed_on_top():
    s = Series.from_values(np.arange(8.0))
    lines = _polylines(render_overlay(s, s, width=200))
    assert lines[0].get("stroke-width") == "1"
    assert lines[1].get("stroke-width") == "2"


def test_overlay_handles_constant_values():
    s = Series.from_values(np.full(10, 3.0))
    doc = render_overlay(s, s, width=300)
    for line in _polylines(doc):
        for pair in line.get("points").split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= 300 and 0 <= y <= 150


def test_overlay_x_stays_inside_the_plot_across_the_whole_int64_range():
    ts = np.array([-(2**63), -(2**62), 0, 2**62, 2**63 - 1], dtype=np.int64)
    s = Series(ts, np.array([1.0, 3.0, 2.0, 5.0, 4.0]))
    width = 400
    for line in _polylines(render_overlay(s, s, width=width)):
        xs = [float(pair.split(",")[0]) for pair in line.get("points").split()]
        assert all(10 <= x <= width - 10 for x in xs), xs
        assert xs == sorted(xs)


def test_overlay_rejects_degenerate_width():
    with pytest.raises(ValueError):
        render_overlay(Series.from_values([1.0, 2.0]), Series.from_values([1.0, 2.0]), width=1)
