"""Streaming panes: sealing, eviction, refresh policy, and batch equivalence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from _oracles import assert_result_measures_its_smoothing
from asap.generators import GENERATORS, noisy_sine
from asap.metrics import kurtosis, roughness
from asap.preagg import preaggregate
from asap.search import SmoothResult, find_window
from asap.smoothing import sma
from asap.series import Series
from asap.stream import StreamState


def _replay(state, series):
    """Feed every point and poll for refreshes the way the CLI loop does."""
    results = []
    for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
        state.ingest(t, v)
        result = state.maybe_refresh()
        if result is not None:
            results.append(result)
    return results


def test_pane_mean():
    st = StreamState(pane_span=4, capacity=10, refresh_interval=100)
    for t, v in zip(range(100, 104), (1.0, 2.0, 0.5, 2.5)):
        st.ingest(t, v)
    agg = st.aggregated()
    assert agg.values.tolist() == [1.5]
    assert agg.timestamps.tolist() == [100]


def test_ingest_seals_full_panes():
    st = StreamState(pane_span=4, capacity=10, refresh_interval=100)
    for i in range(3):
        st.ingest(i, 1.0)
    assert len(st.aggregated()) == 0
    st.ingest(3, 5.0)
    agg = st.aggregated()
    assert len(agg) == 1
    assert agg.values[0] == 2.0
    assert agg.timestamps[0] == 0


def test_ingest_rejects_out_of_order_points():
    st = StreamState(pane_span=2, capacity=10, refresh_interval=100)
    st.ingest(5, 1.0)
    st.ingest(5, 1.0)  # equal timestamps are allowed
    with pytest.raises(ValueError, match="out-of-order"):
        st.ingest(4, 1.0)


def test_ring_buffer_evicts_oldest_panes():
    st = StreamState(pane_span=2, capacity=10, refresh_interval=10_000)
    for i in range(30):  # 15 panes into a 10-pane buffer
        st.ingest(i, float(i))
    agg = st.aggregated()
    assert len(agg) == 10
    # First five panes fell off: the window now starts at pane five.
    assert agg.timestamps[0] == 10
    assert agg.values[0] == (10 + 11) / 2
    assert agg.timestamps.tolist() == list(range(10, 30, 2))


def test_ingest_rejects_non_finite_values_without_touching_state():
    st = StreamState(pane_span=2, capacity=10, refresh_interval=100)
    st.ingest(0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            st.ingest(1, bad)
    st.ingest(1, 3.0)
    agg = st.aggregated()
    assert agg.values.tolist() == [2.0]
    assert agg.timestamps.tolist() == [0]



def test_ingest_rejects_a_value_that_overflows_the_pane_sum():
    st = StreamState(pane_span=2, capacity=10, refresh_interval=100)
    st.ingest(1, 1e308)
    with pytest.raises(ValueError, match="pane sum overflows at value 1e\\+308"):
        st.ingest(5, 1e308)
    st.ingest(3, 1.0)  # the rejected point moved neither the sum nor the clock
    agg = st.aggregated()
    assert agg.values.tolist() == [(1e308 + 1.0) / 2]
    assert agg.timestamps.tolist() == [1]

def test_ingest_rejects_timestamps_outside_int64():
    st = StreamState(pane_span=1, capacity=10, refresh_interval=100)
    for bad in (2**63, -(2**63) - 1, 10**23):
        with pytest.raises(ValueError, match="int64"):
            st.ingest(bad, 1.0)
    st.ingest(-(2**63), 1.0)
    st.ingest(2**63 - 1, 2.0)
    assert st.aggregated().timestamps.tolist() == [-(2**63), 2**63 - 1]


def _ring_feed(pane_span, capacity, laps, extra, seed):
    """A stream that wraps a capacity-pane buffer `laps` times and leaves
    `extra % pane_span` points in the open pane; timestamps repeat and jump."""
    rng = np.random.default_rng(seed)
    n = (capacity * laps + int(rng.integers(1, capacity + 1))) * pane_span + extra % pane_span
    ts = np.cumsum(rng.integers(0, 3, n)) + int(rng.integers(-10**12, 10**12))
    return ts, rng


def _ingest_all(pane_span, capacity, ts, vs):
    state = StreamState(pane_span=pane_span, capacity=capacity, refresh_interval=10**9)
    for t, v in zip(ts.tolist(), vs.tolist()):
        state.ingest(t, v)
    return state


RING_SHAPES = dict(
    pane_span=strategies.integers(1, 9),
    capacity=strategies.integers(1, 12),
    laps=strategies.integers(0, 5),
    extra=strategies.integers(0, 8),
    seed=strategies.integers(0, 2**32 - 1),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(**RING_SHAPES)
def test_ring_buffer_equals_preaggregate_of_the_trailing_points(pane_span, capacity, laps, extra, seed):
    ts, rng = _ring_feed(pane_span, capacity, laps, extra, seed)
    # Dyadic values keep every partial sum exact, so preaggregate's prefix
    # sums and the stream's running sums must agree bit for bit.
    vs = rng.integers(-2**20, 2**20, ts.size) / 1024.0
    state = _ingest_all(pane_span, capacity, ts, vs)

    sealed = ts.size // pane_span
    kept = min(sealed, capacity) * pane_span
    lo, hi = sealed * pane_span - kept, sealed * pane_span
    want = preaggregate(Series(ts[lo:hi], vs[lo:hi]), pane_span)
    got = state.aggregated()
    assert got.values.tolist() == want.values.tolist()
    assert got.timestamps.tolist() == want.timestamps.tolist()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(**RING_SHAPES)
def test_ring_buffer_means_are_arrival_order_sums_and_skip_the_open_pane(
    pane_span, capacity, laps, extra, seed
):
    ts, rng = _ring_feed(pane_span, capacity, laps, extra, seed)
    vs = rng.normal(size=ts.size) * 10.0 ** rng.integers(-5, 6, ts.size)
    state = _ingest_all(pane_span, capacity, ts, vs)

    panes = []
    for start in range(0, ts.size - pane_span + 1, pane_span):
        total = 0.0
        for v in vs[start : start + pane_span].tolist():
            total += v
        panes.append((int(ts[start]), total / pane_span))
    panes = panes[-capacity:]
    got = state.aggregated()
    # `panes` holds full panes only, so this also shows the open one is absent.
    assert list(zip(got.timestamps.tolist(), got.values.tolist())) == panes


def test_constructor_validation():
    with pytest.raises(ValueError):
        StreamState(pane_span=0, capacity=10, refresh_interval=1)
    with pytest.raises(ValueError):
        StreamState(pane_span=1, capacity=0, refresh_interval=1)
    with pytest.raises(ValueError):
        StreamState(pane_span=1, capacity=10, refresh_interval=0)
    with pytest.raises(ValueError):
        StreamState(pane_span=1, capacity=10, refresh_interval=1, max_window=0)


def test_no_refresh_before_four_panes():
    st = StreamState(pane_span=1, capacity=10, refresh_interval=1)
    vals = [0.0, 1.0, 0.5, 1.5, 0.25]
    results = []
    for i, v in enumerate(vals):
        st.ingest(i, v)
        results.append(st.maybe_refresh())
    assert results[:3] == [None, None, None]
    assert results[3] is not None
    assert results[4] is not None


def test_refresh_interval_counts_sealed_panes():
    st = StreamState(pane_span=2, capacity=100, refresh_interval=3)
    refreshes = 0
    rng = np.random.default_rng(6)
    for i in range(40):  # 20 panes
        st.ingest(i, float(rng.normal()))
        if st.maybe_refresh() is not None:
            refreshes += 1
    # First refresh waits for the 4-pane floor, then every third pane:
    # panes 4, 7, 10, 13, 16, 19.
    assert refreshes == 6


def test_constant_window_defers_refresh_without_losing_credit():
    st = StreamState(pane_span=1, capacity=10, refresh_interval=5)
    for i in range(6):
        st.ingest(i, 1.0)
        assert st.maybe_refresh() is None

    # One varying pane arrives: the deferred refresh fires immediately.
    st.ingest(6, 2.0)
    assert st.maybe_refresh() is not None


def test_refresh_result_matches_batch_search():
    raw = noisy_sine(6000, period=200, noise=0.35, seed=10)
    ratio = 5
    st = StreamState(pane_span=ratio, capacity=1200, refresh_interval=1200)
    _replay(st, raw)

    result = st.last_result
    assert result is not None
    batch = find_window(preaggregate(raw, ratio))
    assert result.window == batch.window
    assert result.roughness == pytest.approx(batch.roughness, rel=1e-9)


def test_aggregated_matches_preaggregate_on_aligned_input():
    raw = noisy_sine(400, period=40, noise=0.2, seed=1)
    st = StreamState(pane_span=4, capacity=100, refresh_interval=10_000)
    _replay(st, raw)
    agg = st.aggregated()
    want = preaggregate(raw, 4)
    np.testing.assert_allclose(agg.values, want.values, atol=1e-12)
    np.testing.assert_array_equal(agg.timestamps, want.timestamps)


def test_check_last_window_without_history_is_cold():
    st = StreamState(pane_span=1, capacity=50, refresh_interval=10)
    rng = np.random.default_rng(2)
    for i in range(50):
        st.ingest(i, float(rng.normal()))
    state = st.check_last_window()
    assert state.window == 1
    assert math.isinf(state.roughness)


def test_a_feasible_prior_window_is_found_again():
    # The panes have not changed since the last refresh, so the window it
    # chose is still feasible: the seeded search keeps it, measured afresh.
    raw = noisy_sine(9600, period=160, noise=0.3, seed=12)
    ratio = 4
    st = StreamState(pane_span=ratio, capacity=2400, refresh_interval=1200)
    _replay(st, raw)
    assert st.last_result is not None and st.last_result.window > 1

    agg = st.aggregated()
    seed = st.check_last_window()
    w = st.last_result.window
    assert seed.window == w
    warm = find_window(agg, prior_window=seed.window)
    assert warm.window == w
    assert warm.roughness.hex() == roughness(sma(agg.values, w)).hex()


def test_seeding_never_changes_the_refresh_answer():
    # Same aggregate, cold start vs carried-over state: identical windows.
    raw = noisy_sine(9600, period=160, noise=0.3, seed=12)
    ratio = 4
    st = StreamState(pane_span=ratio, capacity=2400, refresh_interval=1200)
    _replay(st, raw)

    agg = st.aggregated()
    cold = find_window(agg)
    warm = find_window(agg, prior_window=st.check_last_window().window)
    assert warm.window == cold.window


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    shape=strategies.sampled_from(sorted(GENERATORS)),
    pane_span=strategies.integers(1, 4),
    capacity=strategies.integers(4, 120),
    refresh_interval=strategies.integers(1, 30),
    cap=strategies.none() | strategies.integers(1, 40),
)
def test_a_refresh_is_the_seeded_search(shape, pane_span, capacity, refresh_interval, cap):
    # A refresh adds nothing to find_window but the previous window as its
    # prior_window: same window, same count, same roughness bits.
    series = GENERATORS[shape](480, 0)
    st = StreamState(pane_span, capacity, refresh_interval, max_window=cap)
    refreshes = 0
    for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
        st.ingest(t, v)
        agg = st.aggregated()
        seed = st.check_last_window()
        got = st.maybe_refresh()
        if got is None:
            continue
        refreshes += 1
        want = find_window(agg, max_window=cap, prior_window=seed.window)
        assert (got.window, got.candidates_evaluated) == (want.window, want.candidates_evaluated)
        assert got.roughness.hex() == want.roughness.hex()
    assert refreshes >= 1


def test_infeasible_prior_window_falls_back_to_cold_start():
    # History said "smooth with w", new data disagrees: the search evaluates
    # the seed, drops it and finds the cold answer.
    rng = np.random.default_rng(13)
    st = StreamState(pane_span=1, capacity=64, refresh_interval=10_000)
    quiet = rng.uniform(-1.0, 1.0, 64)
    spiky = rng.uniform(-1.0, 1.0, 64)
    spiky[32] = 40.0
    for i, v in enumerate(quiet):
        st.ingest(i, float(v))

    prior = find_window(st.aggregated())
    st.last_result = prior
    assert prior.window > 1

    fresh = StreamState(pane_span=1, capacity=64, refresh_interval=10_000)
    for i, v in enumerate(spiky):
        fresh.ingest(i, float(v))
    fresh.last_result = prior
    agg = fresh.aggregated()
    assert not kurtosis(sma(agg.values, prior.window)) >= kurtosis(agg.values)
    cold = find_window(agg)
    warm = find_window(agg, prior_window=fresh.check_last_window().window)
    assert (warm.window, warm.candidates_evaluated) == (cold.window, cold.candidates_evaluated + 1)
    assert warm.roughness.hex() == cold.roughness.hex()


def test_a_prior_window_that_smooths_the_panes_flat_gives_the_cold_answer():
    # Window 4 smooths a period-4 pattern to a constant: NaN kurtosis, which
    # fails the constraint, so the search evaluates the seed and drops it.
    st = StreamState(pane_span=1, capacity=40, refresh_interval=10_000)
    for i, v in enumerate(np.tile([1.0, 2.0, 3.0, 4.0], 10).tolist()):
        st.ingest(i, v)
    agg = st.aggregated()
    st.last_result = SmoothResult(
        window=4, smoothed=agg, roughness=0.0, kurtosis=1.0, candidates_evaluated=1
    )
    assert math.isnan(kurtosis(sma(agg.values, 4)))
    cold = find_window(agg)
    warm = find_window(agg, prior_window=st.check_last_window().window)
    assert (warm.window, warm.candidates_evaluated) == (cold.window, cold.candidates_evaluated + 1)
    assert warm.roughness.hex() == cold.roughness.hex()



def test_explicit_config_caps_stream_window():
    raw = noisy_sine(4000, period=100, noise=0.3, seed=14)
    st = StreamState(pane_span=1, capacity=4000, refresh_interval=4000, max_window=25)
    _replay(st, raw)
    assert st.last_result is not None
    assert st.last_result.window <= 25


@pytest.mark.parametrize("cap", [None, 5])
@pytest.mark.parametrize("shape", sorted(GENERATORS))
def test_every_refresh_is_measured_on_its_own_smoothed_panes(shape, cap):
    # Seeded refreshes included: the previous result's roughness never
    # stands in for a measurement of the new one.
    st = StreamState(pane_span=2, capacity=80, refresh_interval=3, max_window=cap)
    series = GENERATORS[shape](900, 1)
    refreshes = 0
    for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
        st.ingest(t, v)
        result = st.maybe_refresh()
        if result is not None:
            refreshes += 1
            assert_result_measures_its_smoothing(st.aggregated(), result)
    assert refreshes > 100
