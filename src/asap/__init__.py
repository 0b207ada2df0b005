"""Automatic moving-average smoothing for time series visualization.

Pick the window that minimizes the roughness of the plotted line while
keeping kurtosis at or above the raw series, so smoothing never hides
outliers or regime shifts. Includes pixel-aware preaggregation for large
inputs and a pane-based streaming mode.
"""
from .acf import autocorrelation, find_peaks
from .metrics import kurtosis, roughness, zscore
from .preagg import point_to_pixel_ratio, preaggregate
from .search import (
    SmoothResult,
    binary_only_search,
    estimate_roughness,
    exhaustive_search,
    find_window,
    grid_search,
    window_cap,
)
from .series import Series
from .smoothing import sma, smooth_series
from .stream import StreamState

__version__ = "0.1.0"

__all__ = [
    "Series",
    "SmoothResult",
    "StreamState",
    "autocorrelation",
    "binary_only_search",
    "estimate_roughness",
    "exhaustive_search",
    "find_peaks",
    "find_window",
    "grid_search",
    "kurtosis",
    "point_to_pixel_ratio",
    "preaggregate",
    "roughness",
    "sma",
    "smooth_series",
    "window_cap",
    "zscore",
]
