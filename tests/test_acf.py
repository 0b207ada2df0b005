"""Autocorrelation: FFT route against the direct-sum oracle, plus peak picking."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asap.search
from _oracles import direct_acf, find_peaks_loop
from asap.acf import MIN_PEAK_LAG, MIN_POINTS, PEAK_THRESHOLD, AcfProfile, autocorrelation, fft_size, find_peaks
from asap.series import Series


def test_lag_zero_is_exactly_one():
    x = np.random.default_rng(0).normal(size=64)
    assert autocorrelation(x, 10)[0] == 1.0


def test_fft_matches_direct_sum():
    rng = np.random.default_rng(1)
    for n in (16, 17, 33, 100, 255, 256, 257, 500, 1000, 2048, 3000):
        x = rng.normal(size=n) + 0.01 * np.arange(n)
        got = autocorrelation(x, n - 1)
        want = direct_acf(x, n - 1)
        assert np.max(np.abs(got - want)) < 1e-6


def test_fft_matches_direct_sum_on_random_walks():
    rng = np.random.default_rng(2)
    for n in (50, 333, 1024):
        x = np.cumsum(rng.normal(size=n))
        got = autocorrelation(x, n - 1)
        want = direct_acf(x, n - 1)
        assert np.max(np.abs(got - want)) < 1e-6


def _smallest_5_smooth_at_or_above(m):
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def test_fft_size_is_the_smallest_5_smooth_length():
    for m in range(1, 5001):
        assert fft_size(m) == _smallest_5_smooth_at_or_above(m), m
    # Memoized, in a bounded cache: the lengths just asked for come from it.
    assert fft_size.cache_info().maxsize is not None and fft_size.cache_info().maxsize <= 1024
    hits = fft_size.cache_info().hits
    for m in range(4991, 5001):
        assert fft_size(m) == _smallest_5_smooth_at_or_above(m), m
    assert fft_size.cache_info().hits == hits + 10


# Values that push a float64 sum to its edges: overflow to inf, inf - inf,
# and subnormals whose sums lose nothing.
EDGE_VALUES = np.array([1e300, -1e300, 1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20_000), st.integers(0, 2**32 - 1), st.floats(0, 1), st.sampled_from([1, 1, 2, 3]))
def test_a_reduced_sum_over_n_is_the_mean_bit_for_bit(n, seed, edge_share, stride):
    # autocorrelation (and metrics) center with np.add.reduce(x) / n, which
    # must be np.mean's own float64 result, NaN and inf included.
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0 ** rng.integers(-300, 300), n * stride)
    edges = rng.random(x.size) < edge_share
    x[edges] = rng.choice(EDGE_VALUES, edges.sum())
    x = x[::stride]
    with np.errstate(over="ignore", invalid="ignore"):
        reduced, mean = np.add.reduce(x) / x.size, x.mean()
    assert type(reduced) is type(mean) is np.float64
    assert np.array(reduced).tobytes() == np.array(mean).tobytes()


@pytest.mark.parametrize("n,h", [
    (400, 41), (3001, 301), (20_000, 2001),  # about n/10, as the search asks
    (910, 90), (1000, 125), (99, 1),  # n + h is 5-smooth: the padding is exactly n + h
    (932, 93), (100, 1),  # n + h - 1 is 5-smooth: one point shorter wraps lag h around
])
def test_short_horizons_pick_up_no_wrap_around(n, h):
    x = np.random.default_rng(n).normal(size=n) + 0.01 * np.arange(n)
    np.testing.assert_allclose(autocorrelation(x, h), direct_acf(x, h), rtol=0, atol=1e-9)


def test_sine_correlates_at_its_period():
    period = 32
    for cycles, floor in ((32, 0.95), (128, 0.99)):
        n = cycles * period
        x = np.sin(2 * np.pi * np.arange(n) / period)
        corr = autocorrelation(x, 2 * period)
        assert corr[period] > floor
        # Finite-window taper: the lag-P value sits near 1 - P/N, not at 1.
        assert corr[period] == pytest.approx(1.0 - period / n, abs=0.01)
        assert corr[period // 2] < -0.9


def test_white_noise_decorrelates():
    n = 10_000
    x = np.random.default_rng(3).normal(size=n)
    corr = autocorrelation(x, 100)
    bound = 3.0 / np.sqrt(n)
    assert np.mean(np.abs(corr[1:]) < bound) > 0.95


def test_correlations_bounded_by_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=200) * rng.uniform(0.1, 50)
        corr = autocorrelation(x, 199)
        assert np.max(np.abs(corr)) <= 1.0 + 1e-9


def test_affine_invariance():
    x = np.random.default_rng(5).normal(size=300)
    base = autocorrelation(x, 50)
    np.testing.assert_allclose(autocorrelation(4.0 * x - 7.0, 50), base, atol=1e-9)


def test_autocorrelation_validation():
    x = np.arange(16.0)
    with pytest.raises(ValueError):
        autocorrelation(x, 0)
    with pytest.raises(ValueError):
        autocorrelation(x, 16)
    with pytest.raises(ValueError):
        autocorrelation(np.full(16, 3.0), 4)
    with pytest.raises(ValueError, match=r"^need at least 4 points for autocorrelation$"):
        autocorrelation(np.arange(3.0), 1)


def test_the_acf_and_every_search_share_one_floor():
    assert asap.search.MIN_POINTS is MIN_POINTS == 4
    autocorrelation(np.arange(float(MIN_POINTS)), 1)
    with pytest.raises(ValueError, match=r"^need at least 4 points$"):
        asap.search.exhaustive_search(Series.from_values(np.arange(float(MIN_POINTS - 1))))


def test_find_peaks_strict_interior_maxima():
    corr = np.array([1.0, 0.1, 0.6, 0.2, 0.8, 0.1])
    assert find_peaks(corr).peaks == (2, 4)
    # Lag 1 is below MIN_PEAK_LAG even when it is a strict maximum.
    assert find_peaks(np.array([1.0, 0.6, 0.2, 0.8, 0.1])).peaks == (3,)


def test_find_peaks_threshold_excludes_weak_bumps():
    corr = np.array([1.0, 0.0, 0.15, 0.0, 0.5, 0.0, PEAK_THRESHOLD, 0.0])
    assert find_peaks(corr).peaks == (4,)


def test_find_peaks_plateau_reports_left_edge():
    corr = np.array([1.0, 0.1, 0.5, 0.5, 0.5, 0.1, 0.0])
    assert find_peaks(corr).peaks == (2,)


def test_find_peaks_ignores_edges():
    # Monotone rise into the last lag has no right neighbour: not a peak.
    assert find_peaks(np.array([1.0, 0.1, 0.2, 0.3])).peaks == ()
    assert find_peaks(np.array([1.0, 0.5, 0.3, 0.2])).peaks == ()


@settings(derandomize=True, max_examples=400)
@given(
    values=st.lists(st.floats(-1.5, 1.5), min_size=0, max_size=64),
    decimals=st.integers(0, 2),
)
def test_find_peaks_matches_the_loop_oracle(values, decimals):
    # Rounding to few decimals makes plateaus and ties common, and puts
    # values right at PEAK_THRESHOLD.
    c = np.round(np.asarray(values, dtype=np.float64), decimals)
    profile = find_peaks(c)
    assert (profile.peaks, profile.max_acf) == find_peaks_loop(c, MIN_PEAK_LAG, PEAK_THRESHOLD)
    assert all(type(p) is int for p in profile.peaks)


def test_find_peaks_on_periodic_signal():
    period = 25
    n = 40 * period
    x = np.sin(2 * np.pi * np.arange(n) / period)
    peaks = find_peaks(autocorrelation(x, 4 * period)).peaks
    assert (period in peaks) and (2 * period in peaks)
    assert all(abs(((p + period // 2) % period) - period // 2) <= 1 for p in peaks)


def test_profile_records_top_peak_value():
    profile = find_peaks(np.array([1.0, 0.1, 0.6, 0.2, 0.8, 0.1]))
    assert isinstance(profile, AcfProfile)
    assert profile.max_acf == pytest.approx(0.8)

    flat = find_peaks(np.array([1.0, 0.05, 0.04, 0.03]))
    assert flat.peaks == ()
    assert flat.max_acf == 0.0
