"""Simple moving average over a sliding window.

Output point k averages values[k : k + window]; windows that would run past
the end are dropped, so N points yield N - window + 1 outputs. Timestamps
stay left-aligned (each output keeps the timestamp of the first raw point it
covers).
"""
from __future__ import annotations

import numpy as np

from .series import Series


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """[0, values[0], values[0] + values[1], ...] in float64, built in place."""
    prefix = np.empty(values.size + 1)
    prefix[0] = 0.0
    np.cumsum(values, dtype=np.float64, out=prefix[1:])
    return prefix


def _sma_from_prefix(prefix: np.ndarray, window: int) -> np.ndarray:
    out = prefix[window:] - prefix[:-window]
    out /= window
    return out


def sma(values, window: int) -> np.ndarray:
    """Moving-average values only; see smooth_series for the timestamped form."""
    x = np.asarray(values, dtype=np.float64)
    if window < 1 or window > x.size:
        raise ValueError(f"window must be in [1, {x.size}], got {window}")
    return _sma_from_prefix(_prefix_sums(x), window)


def smooth_series(series: Series, window: int) -> Series:
    """Apply sma to a Series, keeping left-aligned output timestamps."""
    vals = sma(series.values, window)
    return Series(series.timestamps[: vals.size], vals)
