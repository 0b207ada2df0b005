"""Seeded synthetic series for benchmarks and tests."""
from __future__ import annotations

import numpy as np

from .series import Series


def gaussian(n: int, seed: int = 0) -> Series:
    """Standard normal noise."""
    return Series.from_values(np.random.default_rng(seed).normal(0.0, 1.0, n))


def uniform(n: int, seed: int = 0) -> Series:
    """Uniform noise on [0, 1)."""
    return Series.from_values(np.random.default_rng(seed).uniform(0.0, 1.0, n))


def laplace(n: int, seed: int = 0) -> Series:
    """Laplace noise, location 0 and scale 1."""
    return Series.from_values(np.random.default_rng(seed).laplace(0.0, 1.0, n))


def noisy_sine(
    n: int,
    period: int,
    amplitude: float = 1.0,
    noise: float = 0.3,
    seed: int = 0,
) -> Series:
    """Sine of the given period plus IID Gaussian noise."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    vals = amplitude * np.sin(2.0 * np.pi * i / period) + rng.normal(0.0, noise, n)
    return Series.from_values(vals)


def trend_seasonal(
    n: int,
    period: int,
    slope: float = 0.001,
    amplitude: float = 1.0,
    noise: float = 0.2,
    seed: int = 0,
) -> Series:
    """Linear trend plus seasonality plus one local bump plus noise.

    The bump, a Gaussian hump of height 2, one period wide, near two thirds
    of the span, gives smoothing something to expose the way anomalies show
    up in dashboard data.
    """
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    center = 2 * n // 3
    hump = 2.0 * np.exp(-0.5 * ((i - center) / max(1.0, period / 2)) ** 2)
    vals = slope * i + amplitude * np.sin(2.0 * np.pi * i / period) + hump
    vals = vals + rng.normal(0.0, noise, n)
    return Series.from_values(vals)


def spike_in_noise(n: int, seed: int = 0) -> Series:
    """Uniform noise on [-1, 1] with a spike of 10 in the middle.

    The spike dominates the fourth moment, so any averaging lowers kurtosis
    and the window search must leave the series alone.
    """
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, n)
    vals[n // 2] = 10.0
    return Series.from_values(vals)


GENERATORS = {
    "sine": lambda n, seed: noisy_sine(n, period=max(8, n // 25), seed=seed),
    "gaussian": gaussian,
    "uniform": uniform,
    "laplace": laplace,
    "trend": lambda n, seed: trend_seasonal(n, period=max(8, n // 25), seed=seed),
    "spike": spike_in_noise,
}
