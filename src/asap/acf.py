"""Autocorrelation profile and peak detection for periodicity hints.

The estimator keeps a fixed lag-0 denominator:

    corr[t] = sum_{i<N-t} (x[i] - mean)(x[i+t] - mean) / sum_i (x[i] - mean)^2

computed in O(N log N) by zero-padding the centered series and reading the
cyclic self-correlation off an FFT. The padded length is `fft_size(N +
max_lag)`: lag t picks up no wrap-around exactly when the length is at least
N + t. The search asks for lags up to about N/10, so its FFT is about 1.1N
points long, where a full profile takes 2N. The test-suite checks this
route against a direct O(N^2) sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_POINTS = 4  # the shortest series the ACF, and so any search and stream refresh, runs on
MIN_PEAK_LAG = 2
PEAK_THRESHOLD = 0.2


@dataclass(frozen=True)
class AcfProfile:
    """Correlations indexed by lag, the detected peak lags, and the top peak value."""

    correlations: np.ndarray
    peaks: tuple[int, ...]
    max_acf: float


@lru_cache(maxsize=128)
def fft_size(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c at or above m, a length pocketfft is fast at.

    Memoized: a stream asks for the same length at every refresh, and the
    loops below cost several microseconds a call."""
    best = 1 << max(m - 1, 0).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # The smallest power of two times `odd` at or above m.
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Correlations for lags 0..max_lag; corr[0] is exactly 1.

    The centered series is zero-padded to `fft_size(N + max_lag)` points, the
    shortest fast length at which lags 0..max_lag pick up no wrap-around: at
    length L the cyclic sum at lag t also adds x[i] x[i + t - L] for every
    i >= L - t, and each such x[i] is padding when L >= N + t."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points for autocorrelation")
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    # np.add.reduce(x) / n is x.mean()'s own float64 reduction, bit for bit,
    # without its Python-level dispatch.
    centered = x - np.add.reduce(x) / n
    if not centered.any():
        raise ValueError("autocorrelation undefined for constant series")
    size = fft_size(n + max_lag)
    spectrum = np.fft.rfft(centered, size)
    power = spectrum.real**2 + spectrum.imag**2
    raw = np.fft.irfft(power, size)[: max_lag + 1]
    return raw / raw[0]


def find_peaks(correlations) -> AcfProfile:
    """Strict local maxima above PEAK_THRESHOLD at lags >= MIN_PEAK_LAG.

    A run of equal values flanked by lower neighbours counts once, at its
    leftmost lag. max_acf is 0 when nothing qualifies, which downstream code
    treats as "no periodicity evidence".
    """
    c = np.asarray(correlations, dtype=np.float64)
    # Lags where a new run of equal values begins. A run starting at s and
    # ending just before the next run start e is a peak when it rises from
    # c[s - 1] and falls to c[e]; the first and last runs touch an edge.
    runs = np.flatnonzero(c[1:] != c[:-1]) + 1
    starts, ends = runs[:-1], runs[1:]
    level = c[starts]
    peaks = starts[(level > c[starts - 1]) & (c[ends] < level)]
    peaks = peaks[(peaks >= MIN_PEAK_LAG) & (c[peaks] > PEAK_THRESHOLD)]
    max_acf = float(c[peaks].max()) if peaks.size else 0.0
    return AcfProfile(correlations=c, peaks=tuple(peaks.tolist()), max_acf=max_acf)
