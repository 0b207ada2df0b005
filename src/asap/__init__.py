"""Automatic moving-average smoothing for time series visualization.

Pick the window that minimizes the roughness of the plotted line while
keeping kurtosis at or above the raw series, so smoothing never hides
outliers or regime shifts. Includes pixel-aware preaggregation for large
inputs and a pane-based streaming mode.
"""
from .acf import AcfProfile, autocorrelation, find_peaks
from .metrics import first_differences, kurtosis, population_std, roughness, zscore
from .preagg import point_to_pixel_ratio, preaggregate
from .search import (
    SearchConfig,
    SearchState,
    SmoothResult,
    binary_only_search,
    binary_search,
    estimate_roughness,
    exhaustive_search,
    find_window,
    grid_search,
    is_rougher_estimate,
    search_periodic,
    update_lower_bound,
    window_cap,
)
from .series import Series
from .smoothing import SmoothParams, sma, smooth_series
from .stream import StreamState

__version__ = "0.1.0"

__all__ = [
    "AcfProfile",
    "SearchConfig",
    "SearchState",
    "Series",
    "SmoothParams",
    "SmoothResult",
    "StreamState",
    "autocorrelation",
    "binary_only_search",
    "binary_search",
    "estimate_roughness",
    "exhaustive_search",
    "find_peaks",
    "find_window",
    "first_differences",
    "grid_search",
    "is_rougher_estimate",
    "kurtosis",
    "point_to_pixel_ratio",
    "population_std",
    "preaggregate",
    "roughness",
    "search_periodic",
    "sma",
    "smooth_series",
    "update_lower_bound",
    "window_cap",
    "zscore",
]
