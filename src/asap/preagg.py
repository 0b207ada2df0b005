"""Pixel-aware preaggregation.

A chart with `resolution` horizontal pixels cannot show more than one point
per pixel, so raw points are collapsed into disjoint groups of
ratio = max(1, raw_len // resolution) and each group is replaced by its mean.
That is exactly a moving average with slide == window == ratio, so the search
downstream only ever considers windows that are integer multiples of ratio in
raw-point units.
"""
from __future__ import annotations

from .series import Series
from .smoothing import SmoothParams, smooth_series


def point_to_pixel_ratio(raw_len: int, resolution: int) -> int:
    if raw_len < 1:
        raise ValueError("raw_len must be >= 1")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return max(1, raw_len // resolution)


def preaggregate(series: Series, ratio: int) -> Series:
    """Disjoint group means of `ratio` points; trailing partial group dropped."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    if ratio == 1:
        return series
    return smooth_series(series, SmoothParams(window=ratio, slide=ratio))

