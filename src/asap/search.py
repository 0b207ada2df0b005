"""Moving-average window selection.

The goal: the window w that minimizes roughness of the smoothed series
subject to kurtosis(smoothed) >= kurtosis(input), so outliers and regime
shifts survive smoothing. Every strategy evaluates candidate windows the
same way (_try_window) inside the same frame (_run); they differ only in
which windows they visit. find_window gets there cheaply by evaluating
autocorrelation peak lags from largest to smallest with two pruning rules,
then binary-searching the remaining gap; exhaustive_search is the slow
reference that scans every window and is used as the oracle in tests.

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
from dataclasses import dataclass

import numpy as np

from .acf import AcfProfile, autocorrelation, find_peaks
from .metrics import kurtosis, roughness
from .series import Series
from .smoothing import SmoothParams, _prefix_sums, _sma_from_prefix, smooth_series


def window_cap(n: int, max_window: int | None = None) -> int:
    """The largest window a search considers on n points: max_window
    (default n // 10), kept within [1, n - 1]."""
    return max(1, min(n // 10 if max_window is None else max_window, n - 1))


@dataclass
class SearchConfig:
    """Knobs for find_window.

    max_window caps the candidate range (in points of the series being
    searched, i.e. preaggregated points when preaggregation ran upstream).
    """

    max_window: int

    def __post_init__(self):
        if self.max_window < 1:
            raise ValueError("max_window must be >= 1")


@dataclass
class SearchState:
    """Mutable progress of one search: best window so far and pruning bounds."""

    window: int = 1
    roughness: float = math.inf
    lower_bound: float = 1.0
    evaluations: int = 0


@dataclass(frozen=True)
class SmoothResult:
    window: int
    smoothed: Series
    roughness: float
    kurtosis: float
    candidates_evaluated: int
    strategy: str


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
    smoother than the state's best, which w then becomes. A smoothed series
    whose metrics are undefined is neither.
    """
    y = _sma_from_prefix(prefix, w)
    state.evaluations += 1
    try:
        r, k = roughness(y), kurtosis(y)
    except ValueError:
        return False, False
    feasible = k >= target
    kept = feasible and r < state.roughness
    if kept:
        state.window, state.roughness = w, r
    return feasible, kept


def _prunable(state: SearchState, w: int, corr: np.ndarray) -> bool:
    if not math.isfinite(state.roughness):
        return False  # nothing feasible yet, so nothing to compare against
    best_w = state.window
    if best_w >= corr.size or w >= corr.size:
        return False
    return is_rougher_estimate(w, float(corr[w]), best_w, float(corr[best_w]))


def search_periodic(
    values, profile: AcfProfile, state: SearchState, target_kurtosis: float
) -> SearchState:
    """Walk ACF peak lags from largest to smallest, pruning as we go; each
    kept window raises the lower bound the walk stops at."""
    prefix = _prefix_sums(np.asarray(values, dtype=np.float64))
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
    values, head: int, tail: int, state: SearchState, target_kurtosis: float
) -> SearchState:
    """Probe [head, tail] assuming kurtosis falls and roughness shrinks as the
    window grows: an infeasible window discards the upper half, a feasible
    one (kept when it improves on the state) the lower half."""
    x = np.asarray(values, dtype=np.float64)
    prefix = _prefix_sums(x)
    head = max(1, head)
    tail = min(tail, x.size - 1)
    while head <= tail:
        mid = (head + tail) // 2
        if _try_window(prefix, mid, state, target_kurtosis)[0]:
            head = mid + 1
        else:
            tail = mid - 1
    return state


def _run(series: Series, strategy: str, search) -> SmoothResult:
    """The frame every strategy shares: fewer than 4 points is an error, a
    constant series keeps window 1, and otherwise search(values, target
    kurtosis) returns the final SearchState."""
    x = series.values
    if x.size < 4:
        raise ValueError("need at least 4 points")
    state = SearchState() if np.all(x == x[0]) else search(x, kurtosis(x))
    w = state.window
    smoothed = smooth_series(series, SmoothParams(window=w)) if w > 1 else series
    try:
        k = kurtosis(smoothed.values)
    except ValueError:
        k = math.nan
    return SmoothResult(
        window=w,
        smoothed=smoothed,
        roughness=roughness(smoothed.values),
        kurtosis=k,
        candidates_evaluated=max(1, state.evaluations),
        strategy=strategy,
    )


def find_window(
    series: Series,
    config: SearchConfig | None = None,
    state: SearchState | None = None,
    profile: AcfProfile | None = None,
) -> SmoothResult:
    """Pick the smoothing window with the pruned ACF-peak search plus a binary
    fallback over the uncovered gap.

    Without `config` the cap is window_cap's default. `state` lets a caller
    seed the search with a window already known to be feasible (the streaming
    path does this); `profile` lets a caller reuse an already computed
    autocorrelation profile.
    """
    max_window = window_cap(len(series), config.max_window if config else None)

    def search(x, target):
        walk = SearchState() if state is None else state
        acf = profile
        if acf is None:
            # One lag past max_window so a peak sitting exactly on the cap
            # still has a right neighbour to compare against.
            acf = find_peaks(autocorrelation(x, min(x.size - 1, max_window + 1)))
        if not acf.peaks:
            return binary_search(x, 1, max_window, walk, target)
        search_periodic(x, acf, walk, target)
        head = max(math.ceil(walk.lower_bound), walk.window + 1)
        above = next((p for p in acf.peaks if p > walk.window), max_window)
        return binary_search(x, head, min(max_window, above), walk, target)

    return _run(series, "asap", search)


def _scan(series: Series, windows, strategy: str) -> SmoothResult:
    def search(x, target):
        state = SearchState()
        prefix = _prefix_sums(x)
        for w in windows:
            _try_window(prefix, w, state, target)
        return state

    return _run(series, strategy, search)


def exhaustive_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Evaluate every window in [1, max_window]; ties go to the smaller window.

    The reference answer the pruned search is judged against.
    """
    return _scan(series, range(1, window_cap(len(series), max_window) + 1), "exhaustive")


def grid_search(series: Series, step: int, max_window: int | None = None) -> SmoothResult:
    """Exhaustive scan restricted to windows 1, 1+step, 1+2*step, ..."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return _scan(series, range(1, window_cap(len(series), max_window) + 1, step), f"grid{step}")


def binary_only_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Binary search over the whole window range, no ACF guidance."""
    cap = window_cap(len(series), max_window)
    return _run(series, "binary", lambda x, target: binary_search(x, 1, cap, SearchState(), target))
