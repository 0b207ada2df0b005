"""Streaming panes: sealing, eviction, refresh policy, and batch equivalence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from _oracles import assert_result_measures_its_smoothing
from asap.generators import GENERATORS, noisy_sine
from asap.io import ParseError, _parse_lines
from asap.metrics import kurtosis, roughness
from asap.preagg import preaggregate
from asap.search import SmoothResult, find_window
from asap.smoothing import sma
from asap.series import Series, point_error
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


INT64_MIN, INT64_END = -(2**63), 2**63


def _refusal(last, t, v):
    """The rule for a valid point and its wording, written out apart from
    asap.series: the value, then the int64 range, then the order."""
    if not math.isfinite(v):
        return f"non-finite value {v!r}"
    if not INT64_MIN <= t < INT64_END:
        return f"timestamp {t} outside the int64 range"
    if t < last:
        return f"out-of-order point: {t} after {last}"
    return None


VALUES = strategies.one_of(
    strategies.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]), strategies.floats(-1e3, 1e3)
)
# Beside either int64 bound, around zero, or anywhere.
STAMPS = strategies.one_of(
    strategies.integers(INT64_MIN - 3, INT64_MIN + 3),
    strategies.integers(-3, 3),
    strategies.integers(INT64_END - 3, INT64_END + 3),
    strategies.integers(),
)


@settings(derandomize=True, max_examples=500)
@given(last=STAMPS.filter(lambda t: INT64_MIN <= t < INT64_END), t=STAMPS, v=VALUES)
def test_point_error_is_none_exactly_when_the_inline_guard_passes(last, t, v):
    # The guard _parse_lines and ingest test before they call point_error.
    assert (point_error(last, t, v) is None) == (math.isfinite(v) and last <= t < 2**63)
    assert point_error(last, t, v) == _refusal(last, t, v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    # Stamps from a start at or beside either int64 bound, or at zero, by
    # steps that cross both bounds, repeat and go backwards.
    start=strategies.sampled_from([INT64_MIN - 1, INT64_MIN, 0, INT64_END - 3, INT64_END]),
    steps=strategies.lists(strategies.tuples(strategies.integers(-2, 3), VALUES), min_size=1, max_size=12),
)
def test_the_line_parser_refuses_the_row_ingest_refuses_first(start, steps):
    rows, t = [], start
    for step, v in steps:
        t += step
        rows.append((t, v))
    # One point per pane: a pane sum is one value and cannot overflow.
    state = StreamState(pane_span=1, capacity=10, refresh_interval=10**9)
    refused, last = None, INT64_MIN
    for lineno, (t, v) in enumerate(rows, 1):
        try:
            state.ingest(t, v)
        except ValueError as exc:
            assert str(exc) == _refusal(last, t, v)
            refused = f"line {lineno}: {exc}"
            break
        assert _refusal(last, t, v) is None
        last = t
    lines = [f"{t},{v!r}\n" for t, v in rows]
    if refused is None:
        series = _parse_lines(lines)
        assert series.timestamps.tolist() == [t for t, _ in rows]
        assert series.values.tolist() == [v for _, v in rows]
    else:
        with pytest.raises(ParseError) as exc:
            _parse_lines(lines)
        assert str(exc.value) == refused


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


@pytest.mark.parametrize(
    "args,kwargs",
    [((2.5, 400, 5), {}), ((1, 400.0, 5), {}), ((1, 400, 2.5), {}), ((1, 400, 5), {"max_window": 7.5})],
)
def test_constructor_refuses_a_parameter_that_is_not_an_integer(args, kwargs):
    # A span of 2.5 never seals a pane, an interval of 2.5 refreshes every 3
    # panes and a cap of 7.5 used to fail only at the first refresh.
    with pytest.raises(TypeError):
        StreamState(*args, **kwargs)


def test_numpy_integer_parameters_act_as_python_ints():
    s = noisy_sine(3000, period=60, noise=0.3, seed=4)
    plain = _replay(StreamState(3, 200, 4, max_window=9), s)
    numpy = _replay(StreamState(np.int64(3), np.int32(200), np.uint8(4), max_window=np.int64(9)), s)
    assert plain and [(r.window, r.candidates_evaluated) for r in numpy] == [
        (r.window, r.candidates_evaluated) for r in plain
    ]


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


class _ReferenceClock:
    """The refresh rule written out apart from StreamState: a count of panes
    sealed since the last search, a floor of MIN_POINTS (4) panes in the
    ring, and a flat ring that defers the search but keeps its count."""

    def __init__(self, pane_span, capacity, refresh_interval):
        self.pane_span, self.capacity, self.refresh_interval = pane_span, capacity, refresh_interval
        self.means, self.since_search, self.total, self.count = [], 0, 0.0, 0

    def ingest(self, v):
        self.total += v
        self.count += 1
        if self.count == self.pane_span:
            self.means.append(self.total / self.pane_span)
            self.since_search += 1
            self.total, self.count = 0.0, 0

    def searches(self):
        ring = self.means[-self.capacity :]
        if self.since_search < self.refresh_interval or len(ring) < 4 or len(set(ring)) == 1:
            return False
        self.since_search = 0
        return True


@strategies.composite
def _flat_stretches(draw, pane_span, capacity):
    """Values with flat stretches: all flat, flat then varying, or varying
    then flat for more than `capacity` panes, then a little varying again."""

    def length():
        return draw(strategies.integers(0, (2 * capacity + 3) * pane_span))

    def varying(n):
        return [v / 4 for v in draw(strategies.lists(strategies.integers(-8, 8), min_size=n, max_size=n))]

    flat = [draw(strategies.sampled_from([0.0, 1.5, -2.0]))]
    shape = draw(strategies.sampled_from(["flat", "flat-then-varying", "varying-then-flat"]))
    if shape == "flat":
        return flat * length()
    if shape == "flat-then-varying":
        return flat * length() + varying(length())
    # (capacity + 1) panes of points fill the ring with flat panes wherever
    # the stretch starts within a pane.
    return varying(length()) + flat * ((capacity + 1) * pane_span + length()) + varying(length() // 4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    pane_span=strategies.integers(1, 4),
    capacity=strategies.integers(1, 12),
    refresh_interval=strategies.integers(1, 6),
    max_window=strategies.none() | strategies.integers(1, 5),
    poll_every=strategies.integers(1, 3),
    data=strategies.data(),
)
def test_refreshes_land_where_the_reference_clock_puts_them(
    pane_span, capacity, refresh_interval, max_window, poll_every, data
):
    points = data.draw(_flat_stretches(pane_span, capacity))
    st = StreamState(pane_span, capacity, refresh_interval, max_window=max_window)
    ref = _ReferenceClock(pane_span, capacity, refresh_interval)
    got, want = [], []
    for i, v in enumerate(points):
        st.ingest(i, v)
        ref.ingest(v)
        if i % poll_every == 0:  # a caller may poll less often than it ingests
            if st.maybe_refresh() is not None:
                got.append(i)
            if ref.searches():
                want.append(i)
    assert got == want


def test_a_flat_ring_is_looked_at_once_per_sealed_pane(monkeypatch):
    looked_at = []
    aggregated = StreamState.aggregated

    def counting(self):
        looked_at.append(self.sealed)
        return aggregated(self)

    monkeypatch.setattr(StreamState, "aggregated", counting)
    st = StreamState(pane_span=5, capacity=8, refresh_interval=3)
    for i in range(100):  # 20 flat panes, polled after every point
        st.ingest(i, 2.5)
        assert st.maybe_refresh() is None
    assert len(looked_at) <= st.sealed
    assert len(set(looked_at)) == len(looked_at)

    # The open pane varies, but the ring does not until that pane seals.
    for i in range(100, 104):
        st.ingest(i, 7.0)
        assert st.maybe_refresh() is None
    st.ingest(104, 7.0)
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
