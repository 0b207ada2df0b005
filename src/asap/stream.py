"""Streaming ingestion over fixed-size panes with periodic window refresh.

Arriving points accumulate into panes of pane_span points (the point-to-pixel
ratio, one pane per output pixel). A pane is a running sum and its start
timestamp; sealed panes live in a ring buffer of two preallocated arrays
(sums and start timestamps) holding the newest `capacity` panes, so memory
stays O(capacity) no matter how long the stream runs, and the pane means are
one slice-and-divide away at refresh time.
One number, next_search, is the refresh clock: the sealed-pane count at
which maybe_refresh next searches. The first search waits for
max(refresh_interval, MIN_POINTS) panes, the floor of a search (a ring of
fewer than MIN_POINTS panes is never searched), and each later one for
refresh_interval more. A search runs on the pane means with the previous
window as find_window's prior_window, evaluated first: when it is still
feasible, the estimate-based pruning engages immediately. A flat ring (every
pane mean equal) has nothing to search, so the search waits, and the ring is
looked at again when the next pane seals, since only a seal changes a mean.
"""
from __future__ import annotations

import operator
from math import inf, isfinite

import numpy as np

from .search import MIN_POINTS, SmoothResult, find_window, window_cap
from .series import Series, point_error

# Not called here: the benchmark's tracer wraps these names on this module,
# and check_last_window, whose SearchState result it reads .window from.
from .acf import autocorrelation, find_peaks
from .metrics import kurtosis, roughness
from .search import SearchState
from .smoothing import sma


class StreamState:
    """Single-writer stream: ingest points, refresh the window on demand,
    starting each search from the previous window."""

    def __init__(
        self,
        pane_span: int,
        capacity: int,
        refresh_interval: int,
        max_window: int | None = None,
    ):
        # Integers only (numpy's included), each >= 1: a float span would
        # never seal a pane, and a float interval would round up.
        pane_span, capacity, refresh_interval = map(operator.index, (pane_span, capacity, refresh_interval))
        if pane_span < 1:
            raise ValueError("pane_span must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        # window_cap is the one check on max_window; run it now so a bad cap
        # fails here rather than at the first refresh.
        window_cap(MIN_POINTS, max_window)
        self.pane_span = pane_span
        self.capacity = capacity
        self.refresh_interval = refresh_interval
        self.max_window = max_window  # None: window_cap's default at each refresh
        # Sealed pane i (counting from the first) sits in slot i % capacity
        # and again in slot i % capacity + capacity, so the newest `capacity`
        # panes are always one contiguous slice, oldest first.
        self.sums = np.zeros(2 * capacity, dtype=np.float64)
        self.starts = np.zeros(2 * capacity, dtype=np.int64)
        self.sealed = 0
        # The refresh clock: maybe_refresh searches once sealed reaches it.
        self.next_search = max(refresh_interval, MIN_POINTS) if capacity >= MIN_POINTS else inf
        self.last_result: SmoothResult | None = None
        # The open pane: sum accumulates 0.0 + v1 + v2 ... in arrival order.
        self._open_sum = 0.0
        self._open_count = 0
        self._open_start = 0
        self._last_ts = -(2**63)  # the int64 floor: pane starts are stored as int64

    def ingest(self, t: int, v: float) -> None:
        """Add one point; seals the open pane when it reaches pane_span points.

        Raises ValueError on a finite value that would overflow the open
        pane's sum, and otherwise with `point_error`'s text, the line
        parser's, on a NaN or infinite value, a timestamp outside int64 or
        an out-of-order one (equal timestamps pass); a rejected point leaves
        the state unchanged.
        """
        total = self._open_sum + v
        # A finite total implies a finite v: one test covers both.
        if not (isfinite(total) and self._last_ts <= t < 2**63):
            if isfinite(v) and not isfinite(total):
                raise ValueError(f"pane sum overflows at value {v!r}")
            raise ValueError(point_error(self._last_ts, t, v))
        self._last_ts = t
        if self._open_count == 0:
            self._open_start = t
        self._open_sum = total
        self._open_count += 1
        if self._open_count == self.pane_span:
            slot = self.sealed % self.capacity
            self.sums[slot] = self.sums[slot + self.capacity] = self._open_sum
            self.starts[slot] = self.starts[slot + self.capacity] = self._open_start
            self.sealed += 1
            self._open_sum = 0.0
            self._open_count = 0

    def aggregated(self) -> Series:
        """Pane means as a Series, oldest first (sealed panes only).

        Built unchecked: ingest admits only finite pane sums and in-order
        int64 stamps, so the means are finite and the starts non-decreasing."""
        n = min(self.sealed, self.capacity)
        lo = (self.sealed - n) % self.capacity
        return Series._unchecked(self.starts[lo : lo + n].copy(), self.sums[lo : lo + n] / self.pane_span)

    def check_last_window(self) -> SearchState:
        """The previous window (1 before the first refresh), as the record
        the benchmark's tracer reads; maybe_refresh passes its window on as
        find_window's prior_window, once per refresh."""
        return SearchState(window=1 if self.last_result is None else self.last_result.window)

    def maybe_refresh(self) -> SmoothResult | None:
        """Re-run the window search once `sealed` reaches `next_search`.

        The first search waits for max(refresh_interval, MIN_POINTS) sealed
        panes, and a ring of fewer than MIN_POINTS panes is never searched;
        each later search waits for refresh_interval more panes. Returns None
        before then, and when the pane means are all equal: that flat ring is
        looked at again when the next pane seals.
        """
        if self.sealed < self.next_search:
            return None
        aggregated = self.aggregated()
        x = aggregated.values
        if (x == x[0]).all():
            self.next_search = self.sealed + 1
            return None
        self.next_search = self.sealed + self.refresh_interval
        prior = self.check_last_window().window
        result = find_window(aggregated, max_window=self.max_window, prior_window=prior)
        self.last_result = result
        return result
