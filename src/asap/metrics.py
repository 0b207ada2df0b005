"""Roughness and kurtosis, the two quantities the window search trades off.

All moments use the population convention (divide by N, no bias correction),
so kurtosis of a normal sample converges to 3 and of a Laplace sample to 6.
A mean is written as x.sum() / n: that is the reduction np.mean runs on
float64, so the results are bit-identical, minus np.mean's dispatch cost,
which matters at the ~10 calls per window search.
"""
from __future__ import annotations

import math

import numpy as np

from .series import Series


def first_differences(values) -> np.ndarray:
    """Consecutive deltas x[i+1] - x[i]; needs at least two points."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 points to difference")
    return x[1:] - x[:-1]


def population_std(values) -> float:
    """Standard deviation with the divide-by-N convention."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    dev = x - x.sum() / n
    dev *= dev
    return math.sqrt(dev.sum() / n)


def roughness(values) -> float:
    """Population std of the first differences.

    Zero exactly when the points lie on one straight line, and it grows with
    the magnitude of point-to-point wiggle, which is what makes it a usable
    smoothness objective.
    """
    return population_std(first_differences(values))


def kurtosis(values) -> float:
    """Fourth standardized moment m4 / m2^2 (population moments).

    Raises ValueError for constant input, where the ratio is undefined.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points for kurtosis")
    sq = x - x.sum() / n
    sq *= sq
    m2 = float(sq.sum() / n)
    if m2 * m2 == 0.0:
        # Zero, or a spread below ~1e-154 whose m2 * m2 underflows. The ratio
        # is scale-free, so take it on the deviations scaled to max |dev| = 1.
        dev = x - x.sum() / n
        scale = np.abs(dev).max()
        if scale == 0.0:
            raise ValueError("kurtosis undefined for constant series")
        return kurtosis(dev / scale)
    sq *= sq
    m4 = float(sq.sum() / n)
    return m4 / (m2 * m2)


def zscore(series: Series) -> Series:
    """Center at zero mean and rescale to unit population std."""
    x = series.values
    sigma = population_std(x)
    if sigma == 0.0:
        raise ValueError("z-score undefined for constant series")
    return Series(series.timestamps, (x - x.mean()) / sigma)
