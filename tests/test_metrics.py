"""Moment and roughness metrics pinned against hand-computed values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asap.generators import noisy_sine
from asap.metrics import first_differences, kurtosis, population_std, roughness, zscore
from asap.series import Series

from _oracles import kurtosis_np, population_std_np, roughness_np

# Hand-computed: values [1, -1, 1], mean 1/3, squared deviations
# (4/9, 16/9, 4/9), variance 8/9, std sqrt(8/9).
STD_1_M1_1 = 0.9428090415820634


def test_first_differences():
    np.testing.assert_array_equal(first_differences([1.0, 2.0, 3.0]), [1.0, 1.0])
    np.testing.assert_array_equal(first_differences([0.0, 1.0, 0.0, 1.0]), [1.0, -1.0, 1.0])


def test_first_differences_needs_two_points():
    with pytest.raises(ValueError):
        first_differences([5.0])


def test_population_std():
    assert population_std([1.0, 1.0, 1.0]) == 0.0
    assert population_std([0.0, 2.0]) == 1.0
    assert population_std([1.0, -1.0, 1.0]) == pytest.approx(STD_1_M1_1, abs=1e-15)


def test_population_std_rejects_empty_input():
    with pytest.raises(ValueError, match="empty input"):
        population_std([])


def test_population_std_divides_by_n():
    # Distinguishes the population convention from the n-1 sample one.
    x = [0.0, 1.0]
    assert population_std(x) == pytest.approx(0.5, abs=1e-15)
    assert np.std(x, ddof=1) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_roughness_hand_computed():
    # Alternating series: diffs are [1, -1, 1], same std as above.
    assert roughness([0.0, 1.0, 0.0, 1.0]) == pytest.approx(STD_1_M1_1, abs=1e-15)


def test_roughness_zero_only_for_straight_lines():
    rng = np.random.default_rng(5)
    for _ in range(20):
        slope, intercept = rng.normal(), rng.normal()
        line = intercept + slope * np.arange(50.0)
        assert roughness(line) == pytest.approx(0.0, abs=1e-9)
        bent = line.copy()
        bent[25] += 1.0
        assert roughness(bent) > 1e-6


def test_kurtosis_hand_computed():
    # [0, 0, 0, 1]: mean 1/4, m2 = 3/16, m4 = 21/256, ratio 7/3.
    assert kurtosis([0.0, 0.0, 0.0, 1.0]) == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_kurtosis_undefined_for_constant():
    assert math.isnan(kurtosis([3.0, 3.0, 3.0]))


def test_kurtosis_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        kurtosis([3.0])



@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
def test_kurtosis_survives_spreads_whose_moments_underflow(scale):
    # At 1e-160 m2 is nonzero but m2 * m2 underflows; below ~1e-162 m2 does.
    x = np.tile([0.0, 1.0, 2.0], 14)[:40]
    assert kurtosis(scale * x) == pytest.approx(kurtosis(x), rel=1e-12)
    assert math.isnan(kurtosis(np.full(40, scale)))

@pytest.mark.parametrize("k", [-500, -400, -300, -260, 200, 250])
def test_kurtosis_is_exact_under_a_power_of_two_scale(k):
    # At 2**-260 m2 * m2 is subnormal; further down it is 0.
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_t(3, size=200)
        assert kurtosis(np.ldexp(x, k)) == kurtosis(x)


def test_kurtosis_reference_distributions():
    rng = np.random.default_rng(2)
    assert kurtosis(rng.normal(size=1_000_000)) == pytest.approx(3.0, abs=0.05)
    assert kurtosis(rng.laplace(size=1_000_000)) == pytest.approx(6.0, abs=0.15)
    assert kurtosis(rng.uniform(size=1_000_000)) == pytest.approx(1.8, abs=0.02)


@settings(derandomize=True, max_examples=60)
@given(
    values=st.lists(st.floats(-100, 100), min_size=4, max_size=40),
    scale=st.floats(0.1, 10),
    shift=st.floats(-50, 50),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_kurtosis_affine_invariant(values, scale, shift, sign):
    x = np.asarray(values)
    if population_std(x) < 1e-3:
        return
    assert kurtosis(sign * scale * x + shift) == pytest.approx(kurtosis(x), rel=1e-6)


@settings(derandomize=True, max_examples=60)
@given(
    values=st.lists(st.floats(-100, 100), min_size=3, max_size=40),
    scale=st.floats(0.1, 10),
    shift=st.floats(-50, 50),
)
def test_roughness_scales_with_amplitude(values, scale, shift):
    x = np.asarray(values)
    base = roughness(x)
    assert roughness(scale * x + shift) == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


@settings(derandomize=True, max_examples=200)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300),
    scale=st.floats(1e-3, 1e3),
    shift=st.floats(-1e4, 1e4),
)
def test_moments_equal_the_np_mean_formulation_exactly(values, scale, shift):
    for x in (np.asarray(values), scale * np.asarray(values) + shift):
        assert population_std(x) == population_std_np(x)
        assert roughness(x) == roughness_np(x)
        if population_std(x) > 1e-100:  # m2 * m2 underflows below this spread
            assert kurtosis(x) == kurtosis_np(x)


def test_moments_equal_the_np_mean_formulation_on_long_inputs():
    # Long enough for numpy's pairwise summation to split into blocks.
    rng = np.random.default_rng(11)
    for n in (2, 7, 128, 129, 1000, 4099, 100_000):
        for x in (rng.normal(size=n), 1e-3 * rng.standard_t(3, size=n) + 5e3, rng.uniform(size=n) * 1e9):
            assert population_std(x) == population_std_np(x)
            assert roughness(x) == roughness_np(x)
            assert kurtosis(x) == kurtosis_np(x)
            strided = x[::3]
            if strided.size >= 2:
                assert kurtosis(strided) == kurtosis_np(strided)
                assert roughness(strided) == roughness_np(strided)


def test_zscore():
    s = Series(np.array([10, 20], dtype=np.int64), np.array([0.0, 2.0]))
    z = zscore(s)
    np.testing.assert_array_equal(z.values, [-1.0, 1.0])
    np.testing.assert_array_equal(z.timestamps, s.timestamps)


def test_zscore_normalizes_moments():
    rng = np.random.default_rng(7)
    s = Series.from_values(rng.normal(5.0, 3.0, 1000))
    z = zscore(s)
    assert abs(float(z.values.mean())) < 1e-12
    assert population_std(z.values) == pytest.approx(1.0, abs=1e-12)


def test_zscore_rejects_constant():
    with pytest.raises(ValueError):
        zscore(Series.from_values(np.full(8, 2.5)))


# Values whose every power-of-two rescaling below stays a normal float.
NORMAL_VALUES = st.lists(
    st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) > 1e-30), min_size=2, max_size=60
)


@settings(derandomize=True, max_examples=200)
@given(values=NORMAL_VALUES, k=st.integers(-900, 900))
def test_zscore_is_exact_under_power_of_two_rescaling(values, k):
    x = np.asarray(values)
    if (x == x[0]).all():
        return
    z = zscore(Series.from_values(x)).values
    assert zscore(Series.from_values(np.ldexp(x, k))).values.tobytes() == z.tobytes()
    # The plain formula's bits wherever it neither overflows nor underflows.
    assert z.tobytes() == ((x - x.mean()) / population_std_np(x)).tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
def test_zscore_of_an_extreme_spread_has_unit_std(scale):
    s = noisy_sine(2000, period=50, seed=3)
    z = zscore(Series(s.timestamps, s.values * scale)).values
    assert np.isfinite(z).all()
    assert population_std(z) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(z, zscore(s).values, rtol=1e-12, atol=1e-12)


def test_series_validation():
    with pytest.raises(ValueError):
        Series(np.array([2, 1], dtype=np.int64), np.array([0.0, 1.0]))  # ts must not decrease
    with pytest.raises(ValueError):
        Series(np.array([1, 2], dtype=np.int64), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        Series(np.array([1, 2, 3], dtype=np.int64), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="one-dimensional"):
        Series(np.array([[1, 2]], dtype=np.int64), np.array([[0.0, 1.0]]))


def test_series_accepts_timestamps_spanning_the_whole_int64_range():
    # Their difference does not fit in int64; the order check must not wrap.
    ts = np.array([-(2**63) + 1, 2**63 - 1], dtype=np.int64)
    assert len(Series(ts, np.zeros(2))) == 2
    with pytest.raises(ValueError):
        Series(ts[::-1], np.zeros(2))


def test_series_from_values():
    s = Series.from_values([1.0, 2.0, 3.0])
    assert s.timestamps.tolist() == [0, 1, 2]
    assert len(s) == 3
