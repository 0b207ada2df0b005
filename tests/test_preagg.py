"""Pixel-budget preaggregation: grouping ratio and composed means."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sma_loop
from asap.preagg import point_to_pixel_ratio, preaggregate
from asap.series import Series
from asap.smoothing import sma


def test_ratio_examples():
    assert point_to_pixel_ratio(604_800, 2304) == 262
    assert point_to_pixel_ratio(1_000_000, 272) == 3676
    assert point_to_pixel_ratio(500, 800) == 1
    assert point_to_pixel_ratio(800, 800) == 1
    assert point_to_pixel_ratio(1599, 800) == 1
    assert point_to_pixel_ratio(1600, 800) == 2


def test_ratio_validation():
    with pytest.raises(ValueError):
        point_to_pixel_ratio(0, 800)
    with pytest.raises(ValueError):
        point_to_pixel_ratio(100, 0)


def test_a_ratio_that_is_not_an_integer_fails_at_entry(monkeypatch):
    # Each call below would otherwise fail a bound (ValueError) or, for
    # preaggregate(s, 1.0), return s unchanged; no prefix sum is built first.
    monkeypatch.setattr("asap.preagg._prefix_sums", None)
    s = Series.from_values(np.arange(10.0))
    for call in (lambda: point_to_pixel_ratio(2000.0, 800), lambda: point_to_pixel_ratio(0, 0.0),
                 lambda: preaggregate(s, 1.0), lambda: preaggregate(s, 0.0), lambda: preaggregate(s, "2")):
        with pytest.raises(TypeError):
            call()


def test_numpy_integer_ratios_act_as_python_ints():
    ratio = point_to_pixel_ratio(np.int64(2000), np.int32(800))
    assert type(ratio) is int and ratio == 2
    s = Series.from_values(np.arange(10.0))
    assert preaggregate(s, np.uint8(1)) is s
    got, want = preaggregate(s, np.int64(3)), preaggregate(s, 3)
    assert got.timestamps.tolist() == want.timestamps.tolist() and got.values.tolist() == want.values.tolist()


def test_preaggregate_groups_disjoint_means():
    s = Series(10 * np.arange(4), [1.0, 2.0, 3.0, 4.0])
    out = preaggregate(s, 2)
    np.testing.assert_allclose(out.values, [1.5, 3.5])
    assert out.timestamps.tolist() == [0, 20]


def test_preaggregate_drops_trailing_partial_group():
    s = Series.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    assert len(preaggregate(s, 2)) == 2


def test_preaggregate_ratio_one_is_identity():
    s = Series.from_values(np.arange(10.0))
    assert preaggregate(s, 1) is s
    for bad in (0, -2, 11):
        with pytest.raises(ValueError):
            preaggregate(s, bad)
    assert len(preaggregate(s, 10)) == 1


@settings(derandomize=True, max_examples=300)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
    start=st.integers(-(2**40), 2**40),
    step=st.integers(0, 1000),
    data=st.data(),
)
def test_preaggregate_matches_the_loop_oracle(values, start, step, data):
    s = Series(start + step * np.arange(len(values)), values)
    ratio = data.draw(st.integers(1, len(values)), label="ratio")
    out = preaggregate(s, ratio)
    np.testing.assert_allclose(out.values, sma_loop(s.values, ratio, slide=ratio), rtol=1e-12, atol=1e-6)
    if ratio > 1:  # ratio 1 returns the input itself
        # The same prefix-sum arithmetic as sma, so equal bit for bit.
        np.testing.assert_array_equal(out.values, sma(s.values, ratio)[::ratio])
    # Left-aligned: each group keeps the timestamp of its first raw point.
    assert out.timestamps.tolist() == s.timestamps[: len(out) * ratio : ratio].tolist()
    assert len(out) == len(values) // ratio


def test_preaggregate_preserves_mean_of_full_groups():
    rng = np.random.default_rng(21)
    s = Series.from_values(rng.normal(size=1000))
    out = preaggregate(s, 8)
    covered = s.values[: len(out) * 8]
    assert float(out.values.mean()) == pytest.approx(float(covered.mean()), abs=1e-12)


def test_smoothing_composes_across_scales():
    # A w-window on the aggregate equals a (w*ratio)-window on the raw data
    # sampled every ratio points.
    rng = np.random.default_rng(22)
    s = Series.from_values(rng.normal(size=2000))
    ratio, w = 5, 7
    agg = preaggregate(s, ratio)
    np.testing.assert_allclose(
        sma(agg.values, w), sma(s.values, w * ratio)[::ratio], atol=1e-10
    )


def test_plan_lands_within_one_pixel_budget():
    rng = np.random.default_rng(23)
    for _ in range(50):
        resolution = int(rng.integers(2, 2000))
        raw_len = int(rng.integers(resolution, 500_000))
        aggregated_len = raw_len // point_to_pixel_ratio(raw_len, resolution)
        # With at least one point per pixel the aggregate fills the budget
        # without doubling it.
        assert resolution <= aggregated_len < 2 * resolution
