"""Moving-average window selection.

The goal: the window w that minimizes roughness of the smoothed series
subject to kurtosis(smoothed) >= kurtosis(input), so outliers and regime
shifts survive smoothing. Every strategy evaluates candidate windows the
same way (_try_window) inside the same frame (_run); they differ only in
which windows they visit. An evaluation measures kurtosis first and
roughness only when the window is feasible, and the result reuses the
winner's evaluation instead of smoothing it again. find_window gets there
cheaply by evaluating autocorrelation peak lags from largest to smallest
with two pruning rules, then binary-searching the remaining gap;
exhaustive_search is the slow reference that scans every window and is used
as the oracle in tests.

Pruning rules, both derived from the closed-form roughness estimate for a
window w over an N-point series with std sigma:

    est(w) = sqrt(2) * sigma / w * sqrt(1 - N / (N - w) * acf[w])

* a candidate is skipped when its estimate exceeds the estimate at the
  current best window (engaged only once some feasible window is known), and
* after accepting a window, no window below
  w * sqrt((1 - max_acf) / (1 - acf[w])) can beat the best achievable
  estimate, so the walk down the candidate list stops there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acf import AcfProfile, autocorrelation, find_peaks
from .metrics import kurtosis, roughness
from .series import Series
from .smoothing import _prefix_sums, _sma_from_prefix, smooth_series

MIN_POINTS = 4  # the shortest series any search (and so any stream refresh) runs on


def window_cap(n: int, max_window: int | None = None) -> int:
    """The largest window a search considers on n points: max_window
    (default n // 10), kept within [1, n - 1].

    max_window counts points of the series being searched, i.e. preaggregated
    points when preaggregation ran upstream; below 1 it is a ValueError.
    """
    if max_window is None:
        max_window = n // 10
    elif max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    return max(1, min(max_window, n - 1))


def acf_horizon(n: int, max_window: int | None = None) -> int:
    """The autocorrelation lags a search over n points needs: one past
    window_cap, so a peak sitting exactly on the cap still has a right
    neighbour to compare against."""
    return min(n - 1, window_cap(n, max_window) + 1)


@dataclass
class SearchState:
    """Mutable progress of one search: best window so far and pruning bounds.

    When the search itself kept the best window, kurtosis and smoothed hold
    that evaluation (smoothed is None for a seeded or the initial window).
    Both follow from the window, so they take no part in comparisons.
    """

    window: int = 1
    roughness: float = math.inf
    lower_bound: float = 1.0
    evaluations: int = 0
    kurtosis: float = field(default=math.nan, compare=False)
    smoothed: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SmoothResult:
    window: int
    smoothed: Series
    roughness: float
    kurtosis: float
    candidates_evaluated: int


def estimate_roughness(sigma: float, n: int, w: int, acf_w: float) -> float:
    """Closed-form roughness estimate for window w; clamped at 0 when the
    correlation term would push the radicand negative."""
    if not 1 <= w < n:
        raise ValueError("window must satisfy 1 <= w < n")
    radicand = 1.0 - (n / (n - w)) * acf_w
    if radicand <= 0.0:
        return 0.0
    return math.sqrt(2.0) * sigma / w * math.sqrt(radicand)


def update_lower_bound(lower_bound: float, w: int, acf_w: float, max_acf: float) -> float:
    """Tighten the smallest window still worth trying after accepting w.

    Degenerate correlations (>= 1) leave the bound unchanged.
    """
    if acf_w >= 1.0 or max_acf >= 1.0:
        return lower_bound
    return max(lower_bound, w * math.sqrt((1.0 - max_acf) / (1.0 - acf_w)))


def is_rougher_estimate(w: int, acf_w: float, best_w: int, acf_best: float) -> bool:
    """Compare roughness estimates at two windows, dropping the shared
    sqrt(2)*sigma factor and the near-1 length correction."""
    return math.sqrt(max(0.0, 1.0 - acf_w)) / w > math.sqrt(max(0.0, 1.0 - acf_best)) / best_w


def _try_window(prefix: np.ndarray, w: int, state: SearchState, target: float) -> tuple[bool, bool]:
    """Evaluate window w and return (feasible, kept).

    Feasible: the smoothed kurtosis is at least target. Kept: feasible and
    smoother than the state's best, which w then becomes, together with its
    measurements. A window that smooths the series flat has NaN kurtosis, so
    it is neither. Roughness is measured only for a feasible window.
    """
    y = _sma_from_prefix(prefix, w)
    state.evaluations += 1
    k = kurtosis(y)
    if not k >= target:
        return False, False
    r = roughness(y)
    if not r < state.roughness:
        return True, False
    state.window, state.roughness, state.kurtosis, state.smoothed = w, r, k, y
    return True, True


def _prunable(state: SearchState, w: int, corr: np.ndarray) -> bool:
    if not math.isfinite(state.roughness):
        return False  # nothing feasible yet, so nothing to compare against
    best_w = state.window
    return is_rougher_estimate(w, float(corr[w]), best_w, float(corr[best_w]))


def search_periodic(
    prefix: np.ndarray, profile: AcfProfile, state: SearchState, target_kurtosis: float
) -> SearchState:
    """Walk ACF peak lags from largest to smallest over the series whose
    _prefix_sums are `prefix`, pruning as we go; each kept window raises the
    lower bound the walk stops at."""
    corr = profile.correlations
    for w in reversed(profile.peaks):
        if w < state.lower_bound:
            break  # candidates are ascending; everything left is smaller still
        if _prunable(state, w, corr):
            continue
        if _try_window(prefix, w, state, target_kurtosis)[1]:
            state.lower_bound = update_lower_bound(
                state.lower_bound, w, float(corr[w]), profile.max_acf
            )
    return state


def binary_search(
    prefix: np.ndarray, head: int, tail: int, state: SearchState, target_kurtosis: float
) -> SearchState:
    """Probe [head, tail] over the series whose _prefix_sums are `prefix`,
    assuming kurtosis falls and roughness shrinks as the window grows: an
    infeasible window discards the upper half, a feasible one (kept when it
    improves on the state) the lower half. Callers pass 1 <= head and
    tail <= n - 1 on an n-point series."""
    while head <= tail:
        mid = (head + tail) // 2
        if _try_window(prefix, mid, state, target_kurtosis)[0]:
            head = mid + 1
        else:
            tail = mid - 1
    return state


def _run(series: Series, search) -> SmoothResult:
    """The frame every strategy shares: fewer than MIN_POINTS points is an
    error, a constant series keeps window 1, and otherwise search(values,
    prefix, target kurtosis) returns the final SearchState; prefix holds the
    values' _prefix_sums, built once per search.

    The result's roughness and kurtosis are measured on the returned
    smoothed values: taken from the search's own evaluation of the window
    when it kept one, measured here for window 1 and for a seeded window the
    search never evaluated, so a seed's claimed roughness never reaches it.
    """
    x = series.values
    if x.size < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    target = kurtosis(x)
    state = SearchState() if np.all(x == x[0]) else search(x, _prefix_sums(x), target)
    w = state.window
    if w == 1:
        smoothed, r, k = series, roughness(x), target
    elif state.smoothed is not None:
        y = state.smoothed
        smoothed, r, k = Series(series.timestamps[: y.size], y), state.roughness, state.kurtosis
    else:
        smoothed = smooth_series(series, w)
        r, k = roughness(smoothed.values), kurtosis(smoothed.values)
    return SmoothResult(
        window=w,
        smoothed=smoothed,
        roughness=r,
        kurtosis=k,
        candidates_evaluated=max(1, state.evaluations),
    )


def find_window(
    series: Series, *, max_window: int | None = None, state: SearchState | None = None
) -> SmoothResult:
    """Pick the smoothing window with the pruned ACF-peak search plus a binary
    fallback over the uncovered gap.

    max_window caps the candidates through window_cap (None: its default).
    `state` lets a caller seed the search with a window already known to be
    feasible and its roughness (the streaming path does this); a seeded
    window raises the lower bound just as a window the peak walk keeps does.
    Only the seed's window and roughness are read, and the seed is left as
    it is. A seed whose window is not in [1, cap] is ignored: the search
    runs as if it had not been given.
    """
    max_window = window_cap(len(series), max_window)

    def search(x, prefix, target):
        # Checked once: from here on every window, seeded or a peak, is at
        # most the cap, so it indexes the correlations and fits the series.
        walk = SearchState()
        if state is not None and 1 <= state.window <= max_window:
            walk = SearchState(window=state.window, roughness=state.roughness)
        acf = find_peaks(autocorrelation(x, acf_horizon(x.size, max_window)))
        if not acf.peaks:
            return binary_search(prefix, 1, max_window, walk, target)
        if walk.window > 1:
            walk.lower_bound = update_lower_bound(
                walk.lower_bound, walk.window, float(acf.correlations[walk.window]), acf.max_acf
            )
        search_periodic(prefix, acf, walk, target)
        head = max(math.ceil(walk.lower_bound), walk.window + 1)
        # Peaks stop one lag short of the horizon, so none lies above the cap.
        above = next((p for p in acf.peaks if p > walk.window), max_window)
        return binary_search(prefix, head, above, walk, target)

    return _run(series, search)


def _scan(series: Series, windows) -> SmoothResult:
    def search(x, prefix, target):
        state = SearchState()
        for w in windows:
            _try_window(prefix, w, state, target)
        return state

    return _run(series, search)


def exhaustive_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Evaluate every window in [1, max_window]; ties go to the smaller window.

    The reference answer the pruned search is judged against.
    """
    return _scan(series, range(1, window_cap(len(series), max_window) + 1))


def grid_search(series: Series, step: int, max_window: int | None = None) -> SmoothResult:
    """Exhaustive scan restricted to windows 1, 1+step, 1+2*step, ..."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return _scan(series, range(1, window_cap(len(series), max_window) + 1, step))


def binary_only_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Binary search over the whole window range, no ACF guidance."""
    cap = window_cap(len(series), max_window)
    return _run(series, lambda x, prefix, target: binary_search(prefix, 1, cap, SearchState(), target))
