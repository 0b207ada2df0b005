"""Window search: estimates, pruning bounds, and equivalence with full scans."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import asap.search
from _oracles import assert_result_measures_its_smoothing, best_window_scan
from asap.acf import AcfProfile, autocorrelation, find_peaks
from asap.cli import STRATEGIES
from asap.generators import GENERATORS, noisy_sine, spike_in_noise, trend_seasonal, uniform
from asap.metrics import kurtosis, roughness
from asap.search import (
    SearchState,
    acf_horizon,
    binary_only_search,
    binary_search,
    estimate_roughness,
    exhaustive_search,
    find_window,
    grid_search,
    is_rougher_estimate,
    search_periodic,
    update_lower_bound,
    window_cap,
)
from asap.series import Series
from asap.smoothing import _prefix_sums, sma

# sqrt(2)*1/10*sqrt(1 - 1000/990*0.5), computed with plain python floats.
EST_SIGMA1_N1000_W10_ACF05 = 0.0994936676326182
# 10*sqrt((1-0.9)/(1-0.5)) = 10*sqrt(0.2), same route.
LB_W10_ACF05_MAX09 = 4.47213595499958


def _profile(values, max_lag):
    return find_peaks(autocorrelation(values, max_lag))


def test_estimate_roughness_frozen_value():
    got = estimate_roughness(sigma=1.0, n=1000, w=10, acf_w=0.5)
    assert got == pytest.approx(EST_SIGMA1_N1000_W10_ACF05, abs=1e-15)


def test_estimate_roughness_uncorrelated_reduces_to_iid_law():
    assert estimate_roughness(2.5, 5000, 5, 0.0) == pytest.approx(
        math.sqrt(2) * 2.5 / 5, abs=1e-15
    )


def test_estimate_roughness_clamps_at_zero():
    # Length correction pushes the radicand negative: 1 - (100/50)*0.6 < 0.
    assert estimate_roughness(1.0, 100, 50, 0.6) == 0.0


def test_estimate_roughness_validation():
    with pytest.raises(ValueError):
        estimate_roughness(1.0, 100, 100, 0.1)
    with pytest.raises(ValueError):
        estimate_roughness(1.0, 100, 0, 0.1)


def test_update_lower_bound_frozen_value():
    got = update_lower_bound(1.0, w=10, acf_w=0.5, max_acf=0.9)
    assert got == pytest.approx(LB_W10_ACF05_MAX09, abs=1e-14)


def test_update_lower_bound_never_shrinks():
    assert update_lower_bound(60.0, 10, 0.5, 0.9) == 60.0


def test_update_lower_bound_degenerate_correlations():
    assert update_lower_bound(3.0, 10, 1.0, 0.9) == 3.0
    assert update_lower_bound(3.0, 10, 0.5, 1.0) == 3.0
    # Equal correlations: the candidate bound is the window itself.
    assert update_lower_bound(1.0, 10, 0.5, 0.5) == 10.0


def test_is_rougher_estimate_orders_candidates():
    assert is_rougher_estimate(10, 0.5, 20, 0.5)
    assert not is_rougher_estimate(20, 0.5, 10, 0.5)
    assert not is_rougher_estimate(10, 0.5, 10, 0.5)


def test_search_periodic_matches_unpruned_peak_scan():
    for seed in range(5):
        s = noisy_sine(4000, period=40, noise=0.4, seed=seed)
        x = s.values
        profile = _profile(x, 400)
        assert profile.peaks, "fixture must have visible periodicity"

        state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
        bound = search_periodic(state, profile)

        # Oracle: evaluate every peak with no pruning at all.
        target = kurtosis(x)
        best_w, best_r = 1, math.inf
        for w in profile.peaks:
            y = sma(x, w)
            try:
                r, k = roughness(y), kurtosis(y)
            except ValueError:
                continue
            if k >= target and r < best_r:
                best_w, best_r = w, r

        assert state.window == best_w
        assert state.roughness == pytest.approx(best_r, rel=1e-12)
        assert len(state.measured) <= len(profile.peaks)
        # The kept window raised the bound, and no kept peak lies below it.
        w = state.window
        assert update_lower_bound(1.0, w, float(profile.correlations[w]), profile.max_acf) <= bound <= w


def test_search_periodic_rejects_kurtosis_violations():
    # Periodic signal with one huge spike: smoothing spreads the spike and
    # drops kurtosis below the original, so no candidate is feasible.
    x = np.sin(2 * np.pi * np.arange(2000) / 40)
    x[1000] = 30.0
    profile = _profile(x, 200)
    assert profile.peaks

    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    assert search_periodic(state, profile) == 1.0
    assert state.window == 1
    assert math.isinf(state.roughness)


def test_search_periodic_no_peaks_is_noop():
    x = np.random.default_rng(9).normal(size=500)
    profile = AcfProfile(autocorrelation(x, 50), (), 0.0)
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    assert search_periodic(state, profile) == 1.0
    assert state.window == 1 and len(state.measured) == 0


def test_a_measured_window_is_answered_from_the_record(monkeypatch):
    # One window of each outcome: infeasible, kept, feasible but rougher.
    # Asked again, each returns its feasibility, unkept, with no smoothing.
    x = GENERATORS["sine"](200, 0).values
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    windows = (2, 16, 9)
    assert [state.try_window(w) for w in windows] == [(False, False), (True, True), (True, False)]
    smoothed = []
    real = asap.search._sma_from_prefix
    monkeypatch.setattr(asap.search, "_sma_from_prefix", lambda p, w: smoothed.append(w) or real(p, w))
    again = [state.try_window(w) for w in (*windows, 16)]
    assert again == [(False, False), (True, False), (True, False), (True, False)]
    assert smoothed == [] and state.window == 16
    assert state.measured == {2: False, 16: True, 9: True} and list(state.measured) == list(windows)


def test_binary_search_empty_range_is_noop():
    x = np.random.default_rng(10).normal(size=100)
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    binary_search(state, 5, 4)
    assert state.window == 1 and len(state.measured) == 0


def test_binary_search_single_candidate():
    x = np.random.default_rng(10).uniform(size=400)
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    binary_search(state, 7, 7)
    assert len(state.measured) == 1
    assert state.window in (1, 7)


def test_binary_search_walks_right_when_everything_is_feasible():
    # Uniform noise: every window raises kurtosis toward 3, and roughness
    # falls as 1/w, so the probe path ends at the cap and keeps it.
    x = np.random.default_rng(502).uniform(size=5000)
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    binary_search(state, 1, 500)
    assert state.window == 500
    assert state.roughness == pytest.approx(roughness(sma(x, 500)), rel=1e-12)
    assert len(state.measured) <= math.ceil(math.log2(500)) + 2


def test_binary_search_collapses_when_nothing_is_feasible():
    # A lone spike in bounded noise: any smoothing lowers kurtosis.
    x = spike_in_noise(2000, seed=0).values
    state = SearchState(target=kurtosis(x), prefix=_prefix_sums(x))
    binary_search(state, 1, 200)
    # Every probe above 1 violates the constraint; the floor window remains.
    assert state.window == 1
    assert state.roughness == pytest.approx(roughness(x), rel=1e-12)
    assert len(state.measured) <= math.ceil(math.log2(200)) + 2


def test_find_window_matches_exhaustive_scan():
    from asap.preagg import preaggregate

    # Pixel-scale fixtures: 60k raw points aggregated 50:1, like a dashboard
    # rendering a week of seconds into ~1200 pixels.
    fixtures = [
        preaggregate(noisy_sine(60_000, period=1200, noise=0.3, seed=100), 50),
        preaggregate(noisy_sine(60_000, period=2400, amplitude=2.0, noise=0.6, seed=102), 50),
        preaggregate(
            trend_seasonal(60_000, period=1800, slope=0.00002, amplitude=1.5, noise=0.25, seed=201),
            50,
        ),
        spike_in_noise(2400, seed=300),
        preaggregate(uniform(2400, seed=502), 2),
    ]
    for s in fixtures:
        max_window = len(s) // 10
        fast = find_window(s, max_window=max_window)
        want_w, _ = best_window_scan(s.values, max_window)
        assert fast.window == want_w
        assert fast.candidates_evaluated <= max_window


def test_find_window_result_invariants():
    s = noisy_sine(4000, period=50, noise=0.5, seed=11)
    res = find_window(s)
    x = s.values
    assert 1 <= res.window <= len(s) // 10
    assert len(res.smoothed) == len(s) - res.window + 1
    assert res.roughness == pytest.approx(roughness(res.smoothed.values), rel=1e-12)
    assert res.kurtosis >= kurtosis(x)
    assert res.roughness <= roughness(x)
    assert res.candidates_evaluated >= 1


def test_find_window_constant_series():
    s = Series.from_values(np.full(100, 4.2))
    res = find_window(s)
    assert res.window == 1
    assert res.roughness == 0.0
    assert math.isnan(res.kurtosis)
    np.testing.assert_array_equal(res.smoothed.values, s.values)


def test_find_window_spike_refuses_to_smooth():
    s = spike_in_noise(2000, seed=3)
    res = find_window(s)
    assert res.window == 1
    np.testing.assert_array_equal(res.smoothed.values, s.values)


def test_find_window_needs_four_points():
    with pytest.raises(ValueError):
        find_window(Series.from_values([1.0, 2.0, 3.0]))


def test_find_window_respects_max_window_cap():
    s = noisy_sine(2000, period=200, noise=0.2, seed=8)
    res = find_window(s, max_window=40)
    assert res.window <= 40


def test_find_window_clamps_cap_to_series_length():
    s = Series.from_values(np.random.default_rng(1).uniform(size=12))
    res = find_window(s, max_window=500)
    assert res.window <= 11


def test_seeded_state_does_not_change_the_answer():
    s = noisy_sine(6000, period=40, noise=0.4, seed=42)
    cold = find_window(s)

    warm = find_window(s, prior_window=cold.window)
    assert warm.window == cold.window
    assert warm.roughness == pytest.approx(cold.roughness, rel=1e-12)
    assert warm.candidates_evaluated <= cold.candidates_evaluated


def test_exhaustive_search_counts_every_candidate():
    s = uniform(800, seed=6)
    res = exhaustive_search(s, max_window=80)
    assert res.candidates_evaluated == 80
    want_w, _ = best_window_scan(s.values, 80)
    assert res.window == want_w



@pytest.mark.parametrize("shape,window", [("sine", 64), ("spike", 1), ("gaussian", 19)])
def test_a_scan_measures_roughness_only_for_feasible_windows(monkeypatch, shape, window):
    # Kurtosis decides feasibility, so it is measured once per window plus
    # once for the target; roughness only for a feasible window, plus once
    # for the series itself when window 1 wins. The winner is not smoothed
    # or measured again.
    s = GENERATORS[shape](800, 0)
    calls = {"roughness": 0, "kurtosis": 0, "smooth_series": 0}

    def counted(name):
        real = getattr(asap.search, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(asap.search, name, counted(name))
    res = exhaustive_search(s)
    x = s.values
    feasible = sum(kurtosis(sma(x, w)) >= kurtosis(x) for w in range(1, 81))
    assert (res.window, res.candidates_evaluated) == (window, 80)
    assert feasible < 80  # some window is infeasible, so some roughness is skipped
    assert calls == {"roughness": feasible + (window == 1), "kurtosis": 81, "smooth_series": 0}


@settings(max_examples=120, deadline=None)
@given(
    shape=hs.sampled_from([*sorted(GENERATORS), "constant"]),
    n=hs.integers(4, 300),
    seed=hs.integers(0, 3),
    cap=hs.none() | hs.integers(1, 40),
    prior=hs.none() | hs.integers(-1, 45),
    step=hs.integers(1, 4),
)
def test_candidates_evaluated_counts_the_windows_a_search_smooths(shape, n, seed, cap, prior, step):
    # Every strategy counts a window exactly when it smooths the series for
    # it, smooths no window twice (a prior window the walk or the fallback
    # reaches again included), and measures the kurtosis of each smoothing
    # plus the input's (the target). A constant series smooths nothing,
    # reports 1 and builds no prefix sums; only the target is measured.
    s = Series.from_values(np.full(n, 2.5)) if shape == "constant" else GENERATORS[shape](n, seed)
    searches = {
        "find_window": lambda: find_window(s, max_window=cap, prior_window=prior),
        "binary_only": lambda: binary_only_search(s, cap),
        "grid": lambda: grid_search(s, step, cap),
        "exhaustive": lambda: exhaustive_search(s, cap),
    }
    for label, search in searches.items():
        calls = {"_prefix_sums": 0, "_sma_from_prefix": 0, "kurtosis": 0}
        windows = []
        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                real = getattr(asap.search, name)

                def counted(*args, name=name, real=real):
                    calls[name] += 1
                    if name == "_sma_from_prefix":
                        windows.append(args[1])
                    return real(*args)

                mp.setattr(asap.search, name, counted)
            res = search()
        if shape == "constant":
            assert (res.candidates_evaluated, calls) == (1, {"_prefix_sums": 0, "_sma_from_prefix": 0, "kurtosis": 1}), label
        else:
            smoothed = calls["_sma_from_prefix"]
            assert len(set(windows)) == smoothed, (label, windows)
            assert res.candidates_evaluated == max(1, smoothed), label
            assert calls == {"_prefix_sums": 1, "_sma_from_prefix": smoothed, "kurtosis": smoothed + 1}, label


def test_exhaustive_search_skips_a_window_that_smooths_flat():
    # Window 4 averages each period to 2.5, which has no kurtosis, so it is
    # infeasible like any window that lowers kurtosis.
    s = Series.from_values(np.tile([1.0, 2.0, 3.0, 4.0], 50))
    res = exhaustive_search(s)
    assert (res.window, res.candidates_evaluated) == (17, 20)

def test_grid_search_steps_over_candidates():
    s = noisy_sine(4000, period=50, noise=0.5, seed=11)
    g10 = grid_search(s, step=10)
    assert g10.candidates_evaluated == len(range(1, 400 + 1, 10))

    g1 = grid_search(s, step=1)
    full = exhaustive_search(s)
    assert g1.window == full.window

    # The coarse grid can only do as well as the full scan.
    assert g10.roughness >= full.roughness - 1e-12
    with pytest.raises(ValueError):
        grid_search(s, step=0)


def test_binary_only_search_labels_results():
    spike = binary_only_search(spike_in_noise(2000, seed=5))
    assert spike.window == 1

    smooth = binary_only_search(uniform(5000, seed=502))
    assert smooth.window > 1


def test_window_cap_defaults_and_clamps():
    assert window_cap(1200) == 120
    assert window_cap(25) == 2
    assert window_cap(5) == 1
    assert window_cap(12, 500) == 11
    assert window_cap(12, 3) == 3
    for bad in (0, -3):
        with pytest.raises(ValueError):
            window_cap(12, bad)
        with pytest.raises(ValueError):
            find_window(uniform(100, seed=1), max_window=bad)
        with pytest.raises(ValueError):
            exhaustive_search(uniform(100, seed=1), max_window=bad)


def test_a_cap_or_prior_window_that_is_not_an_integer_fails_at_entry():
    s = uniform(100, seed=1)
    for bad in (7.5, 3.0, "5"):
        with pytest.raises(TypeError):
            window_cap(100, bad)
        with pytest.raises(TypeError):
            find_window(s, max_window=bad)
        with pytest.raises(TypeError):
            find_window(s, prior_window=bad)
    # numpy integers index like Python ints, and the cap comes back as one.
    assert type(window_cap(100, np.int64(7))) is int
    want = find_window(s, max_window=7, prior_window=3)
    got = find_window(s, max_window=np.int32(7), prior_window=np.int64(3))
    assert (got.window, got.candidates_evaluated) == (want.window, want.candidates_evaluated)


def test_a_grid_step_that_is_not_an_integer_fails_at_entry():
    # Two points are too few to search (a ValueError), and step 0.0 is out of
    # bounds: the step is checked before either.
    for bad in (2.0, 0.0, "2"):
        with pytest.raises(TypeError):
            grid_search(Series.from_values([1.0, 2.0]), bad)
    s = noisy_sine(4000, period=50, noise=0.5, seed=11)
    want, got = grid_search(s, 10), grid_search(s, np.int64(10))
    assert (got.window, got.candidates_evaluated) == (want.window, want.candidates_evaluated)


def test_acf_horizon_is_one_lag_past_the_cap():
    assert acf_horizon(1200) == 121
    assert acf_horizon(1200, 40) == 41
    assert acf_horizon(12, 500) == 11  # the cap is 11, and no lag reaches past n - 1
    assert acf_horizon(4) == 2


# (window, candidates_evaluated) per search on an 800-point series
# from asap.generators (seed 0), recorded before the search core was merged
# into one evaluator and one shared frame. Columns: find_window, exhaustive, grid
# step 2, grid step 10, binary only, and find_window seeded with its own
# cold answer.
PINNED_SEARCHES = [
    ("sine", None, [(64, 5), (64, 80), (65, 40), (61, 8), (1, 6), (64, 5)]),
    ("sine", 40, [(32, 4), (32, 40), (33, 20), (31, 4), (1, 5), (32, 4)]),
    ("trend", None, [(64, 6), (64, 80), (65, 40), (61, 8), (60, 7), (64, 6)]),
    ("trend", 40, [(32, 5), (32, 40), (33, 20), (31, 4), (30, 6), (32, 5)]),
    ("spike", None, [(1, 6), (1, 80), (1, 40), (1, 8), (1, 6), (1, 6)]),
    ("spike", 40, [(1, 5), (1, 40), (1, 20), (1, 4), (1, 5), (1, 5)]),
    ("gaussian", None, [(1, 6), (19, 80), (19, 40), (1, 8), (1, 6), (1, 6)]),
    ("gaussian", 40, [(1, 5), (19, 40), (19, 20), (1, 4), (1, 5), (1, 5)]),
    ("uniform", None, [(80, 7), (80, 80), (79, 40), (71, 8), (80, 7), (80, 7)]),
    ("uniform", 40, [(40, 6), (40, 40), (39, 20), (31, 4), (40, 6), (40, 6)]),
]


@pytest.mark.parametrize("shape,cap,expected", PINNED_SEARCHES)
def test_every_strategy_keeps_its_pinned_answer(shape, cap, expected):
    s = GENERATORS[shape](800, 0)
    cold = find_window(s, max_window=cap)
    warm = find_window(s, max_window=cap, prior_window=cold.window)
    results = [
        cold,
        exhaustive_search(s, cap),
        grid_search(s, 2, cap),
        grid_search(s, 10, cap),
        binary_only_search(s, cap),
        warm,
    ]
    assert [(r.window, r.candidates_evaluated) for r in results] == expected


@pytest.mark.parametrize("cap", [None, 1, 5, 40])
@pytest.mark.parametrize("shape", sorted(GENERATORS))
def test_searches_stay_within_the_cap_whatever_seed_or_profile_they_get(shape, cap):
    s = GENERATORS[shape](800, 0)
    n, c = len(s), window_cap(len(s), cap)
    for search in STRATEGIES.values():
        assert 1 <= search(s, cap).window <= c
    # find_window searches around a prior window outside [2, cap] as if it
    # had not been given.
    plain = find_window(s, max_window=cap)
    want = (plain.window, plain.candidates_evaluated, plain.roughness)
    for w in (1, 0, -3, c + 1, n - 1, n + 100):
        got = find_window(s, max_window=cap, prior_window=w)
        assert (got.window, got.candidates_evaluated, got.roughness) == want, w


@pytest.mark.parametrize("k", [-500, -400, -300, -260, -1, 1, 100, 200, 250])
def test_searches_are_unchanged_by_a_power_of_two_scale(k):
    # Every step of a search is exact under x * 2**k in this range, the
    # kurtosis of a spread whose m2 * m2 would be subnormal included: the
    # same windows, counts and kurtosis, and roughness and smoothed values
    # scaled by exactly 2**k.
    for shape in sorted(GENERATORS):
        for seed in range(3):
            s = GENERATORS[shape](2000, seed)
            scaled = Series(s.timestamps, np.ldexp(s.values, k))
            for search in (find_window, exhaustive_search, binary_only_search):
                base, got = search(s), search(scaled)
                assert (got.window, got.candidates_evaluated) == (base.window, base.candidates_evaluated)
                assert got.kurtosis.hex() == base.kurtosis.hex()
                assert got.roughness.hex() == math.ldexp(base.roughness, k).hex()
                assert got.smoothed.values.tobytes() == np.ldexp(base.smoothed.values, k).tobytes()


@hs.composite
def search_inputs(draw):
    """Generator series, or short runs of small integers: those hold ties,
    constant series and windows that smooth the series flat."""
    if draw(hs.booleans()):
        n = draw(hs.integers(4, 600))
        return GENERATORS[draw(hs.sampled_from(sorted(GENERATORS)))](n, draw(hs.integers(0, 3)))
    return Series.from_values(draw(hs.lists(hs.integers(-3, 3), min_size=4, max_size=60)))


@settings(max_examples=150, deadline=None)
@given(
    s=search_inputs(),
    cap=hs.none() | hs.integers(1, 60),
    seed_window=hs.sampled_from(["good", 0, -2, "above cap", "past the end", 2, 3]),
)
def test_a_result_is_measured_on_its_own_smoothed_series(s, cap, seed_window):
    # Whatever the strategy, and whatever prior window find_window gets, a
    # result reports its own window's smoothing and measurements of it.
    for search in STRATEGIES.values():
        assert_result_measures_its_smoothing(s, search(s, cap))
    cold = find_window(s, max_window=cap)
    w = {"good": cold.window, "above cap": window_cap(len(s), cap) + 1, "past the end": len(s) + 5}.get(
        seed_window, seed_window
    )
    warm = find_window(s, max_window=cap, prior_window=w)
    assert_result_measures_its_smoothing(s, warm)
    assert warm.window == 1 or kurtosis(warm.smoothed.values) >= kurtosis(s.values)


# (window, candidates_evaluated) of find_window on a 4 000-point series
# (seed 1) given prior window 201, which lowers the kurtosis of all three.
# The prior window is evaluated, counted and dropped, so the windows are the
# cold search's.
@pytest.mark.parametrize("shape,expected", [("spike", (1, 10)), ("sine", (321, 8)), ("gaussian", (31, 9))])
def test_a_seed_that_hides_deviations_is_dropped(shape, expected):
    s = GENERATORS[shape](4000, 1)
    cold = find_window(s)
    warm = find_window(s, prior_window=201)
    assert (warm.window, warm.candidates_evaluated) == expected
    assert (warm.window, warm.candidates_evaluated) == (cold.window, cold.candidates_evaluated + 1)
    assert warm.roughness.hex() == cold.roughness.hex()
