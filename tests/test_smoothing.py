"""Windowed-mean smoothing against loop oracles and closed-form laws."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import sma_loop
from asap.metrics import kurtosis, population_std, roughness
from asap.series import Series
from asap.smoothing import _prefix_sums, sma, smooth_series


def test_sma_hand_computed():
    np.testing.assert_allclose(sma([1.0, 2.0, 3.0, 4.0], 2), [1.5, 2.5, 3.5])
    np.testing.assert_allclose(sma([2.0, 4.0, 6.0], 3), [4.0])
    np.testing.assert_allclose(sma([1.0, 2.0, 3.0], 1), [1.0, 2.0, 3.0])


def test_sma_parameter_validation():
    x = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        sma(x, 0)
    with pytest.raises(ValueError):
        sma(x, 5)
    with pytest.raises(ValueError):
        smooth_series(Series.from_values(x), 0)
    with pytest.raises(ValueError):
        smooth_series(Series.from_values(x), 5)


def test_sma_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 200))
        x = rng.normal(size=n) * 10
        w = int(rng.integers(1, n + 1))
        np.testing.assert_allclose(sma(x, w), sma_loop(x, w), atol=1e-10)


@settings(derandomize=True, max_examples=300)
@given(values=st.lists(st.floats(width=64), max_size=40), start=st.integers(0, 3), step=st.sampled_from([1, 2, 3, -1, -2]))
@example(values=[], start=0, step=1)
@example(values=[2.5], start=0, step=1)
def test_prefix_sums_equal_a_concatenated_cumsum_bit_for_bit(values, start, step):
    x = np.array(values, dtype=np.float64)[start::step]  # strided unless step is 1
    with np.errstate(all="ignore"):  # sums of huge or infinite values overflow alike
        got = _prefix_sums(x)
        want = np.concatenate(([0.0], np.cumsum(x)))
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_sma_output_length():
    rng = np.random.default_rng(12)
    for n, w in [(10, 3), (10, 10), (7, 2), (100, 9), (1, 1)]:
        assert sma(rng.normal(size=n), w).size == n - w + 1


def test_sma_stays_within_input_range():
    rng = np.random.default_rng(13)
    x = rng.uniform(-5, 5, 500)
    for w in (2, 7, 50):
        y = sma(x, w)
        assert y.min() >= x.min() - 1e-12
        assert y.max() <= x.max() + 1e-12


def test_disjoint_windows_preserve_mean():
    rng = np.random.default_rng(14)
    x = rng.normal(size=1000)
    for w in (4, 7, 25):
        y = sma(x, w)[::w]  # disjoint windows
        covered = x[: y.size * w]
        assert float(y.mean()) == pytest.approx(float(covered.mean()), abs=1e-12)


def test_smooth_series_keeps_left_edge_timestamps():
    s = Series(np.array([10, 20, 30, 40], dtype=np.int64), np.array([1.0, 2.0, 3.0, 4.0]))
    out = smooth_series(s, 2)
    assert out.timestamps.tolist() == [10, 20, 30]
    np.testing.assert_allclose(out.values, [1.5, 2.5, 3.5])

    whole = smooth_series(s, 4)
    assert whole.timestamps.tolist() == [10]


def test_iid_roughness_law():
    # Windowed means of white noise: roughness falls as sqrt(2)*sigma/w.
    x = np.random.default_rng(3).normal(0.0, 1.0, 20_000)
    sigma = population_std(x)
    for w in (2, 5, 10):
        assert roughness(sma(x, w)) == pytest.approx(math.sqrt(2) * sigma / w, rel=0.1)


def test_iid_kurtosis_law():
    # Uniform noise: kurtosis of w-means approaches 3 - 1.2/w.
    x = np.random.default_rng(4).uniform(size=200_000)
    for w in (2, 4):
        assert kurtosis(sma(x, w)) == pytest.approx(3.0 - 1.2 / w, abs=0.1)
