"""Brute-force reference implementations the fast paths are tested against."""
import math

import numpy as np

from asap.metrics import kurtosis, roughness
from asap.smoothing import sma, smooth_series


def direct_acf(values, max_lag: int) -> np.ndarray:
    """O(N^2) autocorrelation: plain sums with a fixed lag-0 denominator."""
    x = np.asarray(values, dtype=np.float64)
    d = x - x.mean()
    denom = float(np.dot(d, d))
    n = d.size
    return np.array([float(np.dot(d[: n - t], d[t:])) / denom for t in range(max_lag + 1)])


def population_std_np(values) -> float:
    """Population std through np.mean, the formulation metrics must equal bit for bit."""
    x = np.asarray(values, dtype=np.float64)
    dev = x - np.mean(x)
    return float(np.sqrt(np.mean(dev * dev)))


def roughness_np(values) -> float:
    return population_std_np(np.diff(np.asarray(values, dtype=np.float64)))


def kurtosis_np(values) -> float:
    x = np.asarray(values, dtype=np.float64)
    dev = x - np.mean(x)
    sq = dev * dev
    m2 = float(np.mean(sq))
    return float(np.mean(sq * sq)) / (m2 * m2)


def find_peaks_loop(correlations, min_lag: int, threshold: float) -> tuple[tuple[int, ...], float]:
    """(peaks, max_acf) by walking the lags: strict interior maxima, a plateau
    counted once at its left edge, then min_lag and threshold applied."""
    c = np.asarray(correlations, dtype=np.float64)
    peaks: list[int] = []
    last = c.size - 1
    i = 1
    while i < last:
        if c[i] > c[i - 1]:
            j = i
            while j < last and c[j + 1] == c[i]:
                j += 1
            if j < last and c[j + 1] < c[i]:
                if i >= min_lag and c[i] > threshold:
                    peaks.append(i)
            i = j + 1
        else:
            i += 1
    return tuple(peaks), max((float(c[p]) for p in peaks), default=0.0)


def sma_loop(values, window: int, slide: int = 1) -> np.ndarray:
    """Windowed means via an explicit python loop."""
    x = np.asarray(values, dtype=np.float64)
    out = []
    k = 0
    while k * slide + window <= x.size:
        out.append(float(np.mean(x[k * slide : k * slide + window])))
        k += 1
    return np.array(out)


def best_window_scan(values, max_window: int) -> tuple[int, float]:
    """Reference argmin: every window, kurtosis constraint, ties to smaller w."""
    x = np.asarray(values, dtype=np.float64)
    target = kurtosis(x)
    best_w, best_r = 1, math.inf
    for w in range(1, max_window + 1):
        y = sma(x, w)
        try:
            r, k = roughness(y), kurtosis(y)
        except ValueError:
            continue
        if k >= target and r < best_r:
            best_w, best_r = w, r
    return best_w, best_r


def assert_result_measures_its_smoothing(series, result) -> None:
    """A search result's smoothed series is smooth_series at its window (the
    series itself at window 1), and its roughness and kurtosis are those of
    that series' values, bit for bit (NaN kurtosis included)."""
    want = series if result.window == 1 else smooth_series(series, result.window)
    assert result.smoothed.timestamps.tobytes() == want.timestamps.tobytes()
    assert result.smoothed.values.tobytes() == want.values.tobytes()
    assert result.roughness.hex() == roughness(want.values).hex()
    assert result.kurtosis.hex() == kurtosis(want.values).hex()
