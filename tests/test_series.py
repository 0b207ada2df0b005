"""The two places that build a Series without its checks (a search result's
smoothed series, a stream's pane means), whose arrays must pass them anyway;
preaggregate, whose group sums can overflow, which keeps them; and the
checked constructor's refusal of a stamp that int64 does not hold."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asap.generators import GENERATORS
from asap.preagg import preaggregate
from asap.search import exhaustive_search, find_window
from asap.series import Series
from asap.stream import StreamState


def assert_passes_the_checks(series):
    """`series` is what the checked constructor makes of its own arrays."""
    checked = Series(series.timestamps, series.values)
    assert series.timestamps.dtype == np.int64 and series.values.dtype == np.float64
    assert checked.timestamps.tobytes() == series.timestamps.tobytes()
    assert checked.values.tobytes() == series.values.tobytes()


# A generator's series, moved and rescaled: tiny spreads (whose kurtosis is
# taken on a rescaled copy) and values near 1e308, whose prefix sums overflow
# into windows that smooth to inf or NaN.
SCALES = [1.0, 1e-160, 1e-300, 1e150, 1e300, 1.7e308]


@st.composite
def searched_series(draw):
    shape = draw(st.sampled_from(sorted(GENERATORS)))
    n = draw(st.integers(4, 400))
    series = GENERATORS[shape](n, draw(st.integers(0, 5)))
    scale, offset = draw(st.sampled_from(SCALES)), draw(st.sampled_from([0.0, 1.0]))
    values = series.values / np.abs(series.values).max() * scale + offset
    start = draw(st.sampled_from([0, -(2**63), 2**63 - 1 - 10 * n]))
    step = draw(st.integers(0, 10))
    return Series(start + step * np.arange(n, dtype=np.int64), values)


@settings(max_examples=300, deadline=None)
@given(searched_series(), st.one_of(st.none(), st.integers(1, 50)), st.one_of(st.none(), st.integers(1, 60)))
def test_a_search_result_passes_the_checks_it_skipped(series, cap, prior):
    with np.errstate(over="ignore", invalid="ignore"):
        results = [find_window(series, max_window=cap, prior_window=prior), exhaustive_search(series, cap)]
    for result in results:
        assert_passes_the_checks(result.smoothed)
        assert result.smoothed.timestamps.tobytes() == series.timestamps[: len(result.smoothed)].tobytes()


@st.composite
def streams(draw):
    """A StreamState and the points to offer it: values up to 1e308, so pane
    sums come near it and some overflow; timestamps from the int64 floor or
    ceiling, some out of order."""
    state = StreamState(draw(st.integers(1, 4)), draw(st.integers(4, 12)), draw(st.integers(1, 3)))
    big = st.floats(-1e308, 1e308, allow_nan=False)
    values = draw(st.lists(st.one_of(big, st.sampled_from([1e308, -1e308, 8e307, 5e-324]), st.floats(-10, 10)),
                           min_size=8, max_size=80))
    t = draw(st.sampled_from([-(2**63), 0, 2**63 - 200]))
    points = []
    for v in values:
        t += draw(st.integers(-1, 3))
        points.append((t, v))
    return state, points


@settings(max_examples=300, deadline=None)
@given(streams())
def test_the_stream_s_pane_means_pass_the_checks_they_skip(stream):
    state, points = stream
    for t, v in points:
        try:
            state.ingest(t, v)
        except ValueError:
            continue  # refused, and the state is unchanged
        with np.errstate(over="ignore", invalid="ignore"):
            result = state.maybe_refresh()
        assert_passes_the_checks(state.aggregated())
        if result is not None:
            assert_passes_the_checks(result.smoothed)


def test_preaggregate_still_refuses_a_group_sum_that_overflows():
    series = Series.from_values([1e308, 1e308, 1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        preaggregate(series, 2)


@pytest.mark.parametrize(
    "stamps",
    [
        [1.5, 2.7, 3.9],
        [1.0, 2.0, float("nan")],
        [0.0, 1.0, 2.0**63],
        np.array([2**63, 2**63 + 5], dtype=np.uint64),
        [0, 1, 2**63],
        [-(2**63) - 1, 0, 1],
        [0, 1, 2**70],
        [None, 1, 2],
    ],
)
def test_a_stamp_int64_does_not_hold_is_refused(stamps):
    # A cast would truncate the first, wrap the uint64 ones to -2**63 and
    # raise OverflowError on a Python int past int64.
    with pytest.raises(ValueError, match="int64"):
        Series(stamps, np.zeros(len(stamps)))


@pytest.mark.parametrize(
    "stamps",
    [
        [],
        [1.0, 2.0, 3.0],
        [-(2.0**63), 0.0, 2.0**62],
        np.array([1, 2, 2**63 - 1], dtype=np.uint64),
        np.array([-5, 0, 7], dtype=np.int32),
        [-(2**63), 0, 2**63 - 1],
    ],
)
def test_an_exact_stamp_of_any_type_is_kept(stamps):
    series = Series(stamps, np.zeros(len(stamps)))
    assert series.timestamps.dtype == np.int64
    assert series.timestamps.tolist() == [int(t) for t in stamps]


def test_int64_stamps_are_taken_as_they_are():
    stamps = np.arange(5, dtype=np.int64)
    assert Series(stamps, np.zeros(5)).timestamps is stamps
