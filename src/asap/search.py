"""Moving-average window selection.

The goal: the window w that minimizes roughness of the smoothed series
subject to kurtosis(smoothed) >= kurtosis(input), so outliers and regime
shifts survive smoothing. Every strategy runs in the same frame (_run),
which builds one SearchState per search, and evaluates candidate windows
through it (SearchState.try_window); they differ only in which windows they
visit. An evaluation measures kurtosis first and roughness only when the
window is feasible, and the result reuses the winner's evaluation instead
of smoothing it again. find_window gets there cheaply by walking a caller's
prior window, then autocorrelation peak lags from largest to smallest, with
two pruning rules, then binary-searching the remaining gap;
exhaustive_search is the slow reference that scans every window and is used
as the oracle in tests.

Pruning rules, both derived from the closed-form roughness estimate for a
window w over an N-point series with std sigma:

    est(w) = sqrt(2) * sigma / w * sqrt(1 - N / (N - w) * acf[w])

* a candidate is skipped when sqrt(1 - acf[w]) / w, which is est(w) without
  sqrt(2) * sigma and N / (N - w) (at most 1.11 at the default cap), exceeds
  that of the best window so far (once some feasible window is known), and
* after accepting a window, no window below
  w * sqrt((1 - max_acf) / (1 - acf[w])) can beat the best achievable
  estimate, so the walk down the candidate list stops there.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .acf import AcfProfile, autocorrelation, find_peaks
from .metrics import kurtosis, roughness
from .series import Series
from .smoothing import _prefix_sums, _sma_from_prefix
from .smoothing import smooth_series  # not called here: the benchmark's tracer wraps it

MIN_POINTS = 4  # the shortest series any search (and so any stream refresh) runs on


def window_cap(n: int, max_window: int | None = None) -> int:
    """The largest window a search considers on n points: max_window
    (default n // 10), kept within [1, n - 1].

    max_window counts points of the series being searched, i.e. preaggregated
    points when preaggregation ran upstream; below 1 it is a ValueError, and
    anything but an integer (numpy's included) a TypeError.
    """
    if max_window is None:
        max_window = n // 10
    else:
        max_window = operator.index(max_window)
        if max_window < 1:
            raise ValueError(f"max_window must be >= 1, got {max_window}")
    return max(1, min(max_window, n - 1))


def acf_horizon(n: int, max_window: int | None = None) -> int:
    """The autocorrelation lags a search over n points needs: one past
    window_cap, so a peak sitting exactly on the cap still has a right
    neighbour to compare against."""
    return min(n - 1, window_cap(n, max_window) + 1)


@dataclass
class SearchState:
    """One search, internal to it: its inputs (target, the series' kurtosis,
    and prefix, its values' _prefix_sums), best window and pruning bound.

    Once the search keeps a window, roughness, kurtosis and smoothed hold its
    evaluation (smoothed is None before). They follow from the window and
    the inputs, so only the window and its progress take part in comparisons.
    """

    window: int = 1
    roughness: float = math.inf
    lower_bound: float = 1.0
    evaluations: int = 0
    kurtosis: float = field(default=math.nan, compare=False)
    smoothed: np.ndarray | None = field(default=None, compare=False)
    target: float = field(default=math.nan, compare=False)
    prefix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def try_window(self, w: int) -> tuple[bool, bool]:
        """Evaluate window w and return (feasible, kept).

        Feasible: the smoothed kurtosis is at least target. Kept: feasible
        and smoother than the best so far, which w then becomes, with its
        measurements. A window that smooths the series flat has NaN kurtosis,
        so it is neither. Roughness is measured only for a feasible window;
        the kept window is not measured, nor counted as evaluated, again.
        """
        if w == self.window and self.smoothed is not None:
            return True, False
        y = _sma_from_prefix(self.prefix, w)
        self.evaluations += 1
        k = kurtosis(y)
        if not k >= self.target:
            return False, False
        r = roughness(y)
        if not r < self.roughness:
            return True, False
        self.window, self.roughness, self.kurtosis, self.smoothed = w, r, k, y
        return True, True


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


def search_periodic(state: SearchState, profile: AcfProfile, first: tuple[int, ...] = ()) -> None:
    """Walk the windows in `first`, then ACF peak lags from largest to
    smallest, pruning as we go; each kept window raises the lower bound the
    walk stops at."""
    corr = profile.correlations
    for w in (*first, *reversed(profile.peaks)):
        if w < state.lower_bound:
            break  # the peaks descend; every one left is smaller still
        best = state.window
        if math.isfinite(state.roughness) and is_rougher_estimate(
            w, float(corr[w]), best, float(corr[best])
        ):
            continue  # estimated rougher than the best feasible window so far
        if state.try_window(w)[1]:
            state.lower_bound = update_lower_bound(
                state.lower_bound, w, float(corr[w]), profile.max_acf
            )


def binary_search(state: SearchState, head: int, tail: int) -> None:
    """Probe [head, tail], assuming kurtosis falls and roughness shrinks as
    the window grows: an infeasible window discards the upper half, a
    feasible one (kept when it improves on the state) the lower half.
    Callers pass 1 <= head and tail <= n - 1 on an n-point series."""
    while head <= tail:
        mid = (head + tail) // 2
        if state.try_window(mid)[0]:
            head = mid + 1
        else:
            tail = mid - 1


def _run(series: Series, search) -> SmoothResult:
    """The frame every strategy shares: fewer than MIN_POINTS points is an
    error, a constant series keeps window 1, and otherwise search(state)
    visits windows through state.try_window; the state holds the target
    kurtosis and the values' _prefix_sums, built once per search.

    The result's roughness and kurtosis are measured on the returned
    smoothed values: taken from the search's own evaluation of any window
    above 1 (the search evaluates every window it keeps), measured here for
    window 1.
    """
    x = series.values
    if x.size < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    state = SearchState(target=kurtosis(x))
    if not (x == x[0]).all():
        state.prefix = _prefix_sums(x)
        search(state)
    w = state.window
    if w == 1:
        smoothed, r, k = series, roughness(x), state.target
    else:
        # A kept window passed kurtosis(y) >= target, which a NaN or an
        # infinity in y fails, and its stamps are a prefix of valid ones.
        y = state.smoothed
        smoothed, r, k = Series._unchecked(series.timestamps[: y.size], y), state.roughness, state.kurtosis
    return SmoothResult(
        window=w,
        smoothed=smoothed,
        roughness=r,
        kurtosis=k,
        candidates_evaluated=max(1, state.evaluations),
    )


def find_window(
    series: Series, *, max_window: int | None = None, prior_window: int | None = None
) -> SmoothResult:
    """Pick the smoothing window with the pruned ACF-peak search plus a binary
    fallback over the uncovered gap.

    max_window caps the candidates through window_cap (None: its default).
    prior_window is a window likely to be good (the streaming path passes
    its previous one): the peak walk evaluates it first and counts it like
    any other candidate, keeps it only if it is feasible, and ignores it
    unless 1 < prior_window <= cap. Both take integers only (a TypeError).
    """
    max_window = window_cap(len(series), max_window)
    # Checked once: from here on every window, prior or a peak, is at most
    # the cap, so it indexes the correlations and fits the series.
    prior = 0 if prior_window is None else operator.index(prior_window)
    first = (prior,) if 1 < prior <= max_window else ()

    def search(state):
        acf = find_peaks(autocorrelation(series.values, acf_horizon(len(series), max_window)))
        search_periodic(state, acf, first)
        if not acf.peaks:
            return binary_search(state, 1, max_window)
        head = max(math.ceil(state.lower_bound), state.window + 1)
        # Peaks stop one lag short of the horizon, so none lies above the cap.
        above = next((p for p in acf.peaks if p > state.window), max_window)
        binary_search(state, head, above)

    return _run(series, search)


def grid_search(series: Series, step: int, max_window: int | None = None) -> SmoothResult:
    """Evaluate windows 1, 1+step, 1+2*step, ... up to the cap. step takes
    integers only (a TypeError), numpy's included."""
    step = operator.index(step)
    if step < 1:
        raise ValueError("step must be >= 1")
    windows = range(1, window_cap(len(series), max_window) + 1, step)

    def search(state):
        for w in windows:
            state.try_window(w)

    return _run(series, search)


def exhaustive_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Evaluate every window in [1, max_window]; ties go to the smaller window.

    The reference answer the pruned search is judged against.
    """
    return grid_search(series, 1, max_window)


def binary_only_search(series: Series, max_window: int | None = None) -> SmoothResult:
    """Binary search over the whole window range, no ACF guidance."""
    cap = window_cap(len(series), max_window)
    return _run(series, lambda state: binary_search(state, 1, cap))
