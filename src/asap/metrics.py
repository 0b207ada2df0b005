"""Roughness and kurtosis, the two quantities the window search trades off.

All moments use the population convention (divide by N, no bias correction),
so kurtosis of a normal sample converges to 3 and of a Laplace sample to 6.
A mean is written as np.add.reduce(x) / n: that is the reduction np.mean
and x.sum() run on float64, so the results are bit-identical, minus their
Python-level dispatch, which matters at the ~10 calls per window search.
"""
from __future__ import annotations

import math
import sys

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
    dev = x - np.add.reduce(x) / n
    dev *= dev
    return math.sqrt(np.add.reduce(dev) / n)


def roughness(values) -> float:
    """Population std of the first differences.

    Zero exactly when the points lie on one straight line, and it grows with
    the magnitude of point-to-point wiggle, which is what makes it a usable
    smoothness objective.
    """
    return population_std(first_differences(values))


def kurtosis(values) -> float:
    """Fourth standardized moment m4 / m2^2 (population moments).

    NaN for constant input, where the ratio is undefined: NaN fails every
    `k >= target` test, so a search never accepts a window that smooths flat.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points for kurtosis")
    sq = x - np.add.reduce(x) / n
    sq *= sq
    m2 = float(np.add.reduce(sq) / n)
    if m2 * m2 < sys.float_info.min:
        # Zero, or a spread below ~1e-154 whose m2 * m2 is subnormal. The
        # ratio is scale-free, so take it on x times the power of two that
        # brings max |dev| into [0.5, 1), which is exact at any scale.
        spread = float(np.abs(x - np.add.reduce(x) / n).max())
        if spread == 0.0:
            return math.nan
        return kurtosis(np.ldexp(x, -math.frexp(spread)[1]))
    sq *= sq
    m4 = float(np.add.reduce(sq) / n)
    return m4 / (m2 * m2)


def zscore(series: Series) -> Series:
    """Center at zero mean and rescale to unit population std.

    Computed on x times the power of two that brings max |x| into [0.5, 1):
    the z-scores are scale-free and the rescaling is exact, so an in-range
    input gets the same bits, and a spread near 1e308 (whose squares
    overflow) or near 1e-200 (whose squares underflow) gets finite, unit-std
    z-scores all the same."""
    x = series.values
    x = np.ldexp(x, -math.frexp(np.abs(x).max(initial=0.0))[1])
    sigma = population_std(x)
    if sigma == 0.0:
        raise ValueError("z-score undefined for constant series")
    return Series(series.timestamps, (x - x.mean()) / sigma)
