"""Pixel-aware preaggregation.

A chart with `resolution` horizontal pixels cannot show more than one point
per pixel, so raw points are collapsed into disjoint groups of
ratio = max(1, raw_len // resolution) and each group is replaced by its mean.
That is a moving average over non-overlapping windows, so the search
downstream only ever considers windows that are integer multiples of ratio in
raw-point units.
"""
from __future__ import annotations

import operator

from .series import Series
from .smoothing import _prefix_sums


def point_to_pixel_ratio(raw_len: int, resolution: int) -> int:
    """max(1, raw_len // resolution): the points one pixel (or stream pane)
    holds. Both take integers only (a TypeError), numpy's included."""
    raw_len, resolution = operator.index(raw_len), operator.index(resolution)
    if raw_len < 1:
        raise ValueError("raw_len must be >= 1")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return max(1, raw_len // resolution)


def preaggregate(series: Series, ratio: int) -> Series:
    """Disjoint group means of `ratio` points; trailing partial group dropped.

    Each group is its prefix-sum difference over ratio, the same arithmetic
    as sma at that window, so a group equals sma's value at its start.
    ratio takes integers only (a TypeError), numpy's included.
    """
    ratio = operator.index(ratio)
    if ratio == 1:
        return series
    n = len(series)
    if not 1 <= ratio <= n:
        raise ValueError(f"ratio must be in [1, {n}], got {ratio}")
    covered = n - n % ratio
    prefix = _prefix_sums(series.values[:covered])
    means = (prefix[ratio::ratio] - prefix[:-ratio:ratio]) / ratio
    return Series(series.timestamps[:covered:ratio], means)
