"""Streaming ingestion over fixed-size panes with periodic window refresh.

Arriving points accumulate into panes of pane_span points (the point-to-pixel
ratio, one pane per output pixel). A pane is a running sum and its start
timestamp; sealed panes live in a ring buffer of two preallocated arrays
(sums and start timestamps) holding the newest `capacity` panes, so memory
stays O(capacity) no matter how long the stream runs, and the pane means are
one slice-and-divide away at refresh time.
Every refresh_interval sealed panes the pane means are searched again; the
previous window seeds that search when it is still feasible, which lets the
estimate-based pruning engage immediately.
"""
from __future__ import annotations

from math import isfinite

import numpy as np

from .acf import AcfProfile, autocorrelation, find_peaks
from .metrics import kurtosis, roughness
from .search import (
    SearchConfig, SearchState, SmoothResult, find_window, update_lower_bound, window_cap
)
from .series import Series
from .smoothing import sma

MIN_PANES_FOR_SEARCH = 4


class StreamState:
    """Single-writer stream: ingest points, refresh the window on demand."""

    def __init__(
        self,
        pane_span: int,
        capacity: int,
        refresh_interval: int,
        config: SearchConfig | None = None,
    ):
        if pane_span < 1:
            raise ValueError("pane_span must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        self.pane_span = pane_span
        self.capacity = capacity
        self.refresh_interval = refresh_interval
        self.config = config  # None means size max_window from the data at each refresh
        # Sealed pane i (counting from the first) sits in slot i % capacity
        # and again in slot i % capacity + capacity, so the newest `capacity`
        # panes are always one contiguous slice, oldest first.
        self.sums = np.zeros(2 * capacity, dtype=np.float64)
        self.starts = np.zeros(2 * capacity, dtype=np.int64)
        self.sealed = 0
        self.panes_since_refresh = 0
        self.last_result: SmoothResult | None = None
        # The open pane: sum accumulates 0.0 + v1 + v2 ... in arrival order.
        self._open_sum = 0.0
        self._open_count = 0
        self._open_start = 0
        self._last_ts = -(2**63)  # the int64 floor: pane starts are stored as int64

    def ingest(self, t: int, v: float) -> None:
        """Add one point; seals the open pane when it reaches pane_span points.

        Raises ValueError on a non-finite value, one that would overflow the
        open pane's sum, a timestamp outside int64 or an out-of-order one
        (equal timestamps pass); a rejected point leaves the state unchanged.
        """
        total = self._open_sum + v
        if not isfinite(total):
            if isfinite(v):
                raise ValueError(f"pane sum overflows at value {v!r}")
            raise ValueError(f"non-finite value {v!r}")
        if not self._last_ts <= t < 2**63:
            if -(2**63) <= t < 2**63:
                raise ValueError(f"out-of-order point: {t} after {self._last_ts}")
            raise ValueError(f"timestamp {t} outside the int64 range")
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
            self.panes_since_refresh += 1
            self._open_sum = 0.0
            self._open_count = 0

    def aggregated(self) -> Series:
        """Pane means as a Series, oldest first (sealed panes only)."""
        n = min(self.sealed, self.capacity)
        lo = (self.sealed - n) % self.capacity
        return Series(self.starts[lo : lo + n].copy(), self.sums[lo : lo + n] / self.pane_span)

    def check_last_window(self, aggregated: Series, profile: AcfProfile | None = None) -> SearchState:
        """Seed state for the next search: the previous window with its true
        roughness when it still fits and still satisfies the kurtosis
        constraint, otherwise a fresh state."""
        fresh = SearchState()
        last = self.last_result
        if last is None or last.window <= 1:
            return fresh
        x = aggregated.values
        w = last.window
        if w >= x.size:
            return fresh
        y = sma(x, w)
        try:
            if kurtosis(y) < kurtosis(x):
                return fresh
        except ValueError:
            return fresh
        seeded = SearchState(window=w, roughness=roughness(y))
        if profile is not None and w < profile.correlations.size:
            seeded.lower_bound = update_lower_bound(
                1.0, w, float(profile.correlations[w]), profile.max_acf
            )
        return seeded

    def maybe_refresh(self) -> SmoothResult | None:
        """Re-run the window search when enough new panes have been sealed.

        Returns None while warming up (< 4 panes), between refreshes, or when
        the pane means are constant and there is nothing to search yet.
        """
        if self.panes_since_refresh < self.refresh_interval:
            return None
        if min(self.sealed, self.capacity) < MIN_PANES_FOR_SEARCH:
            return None
        aggregated = self.aggregated()
        x = aggregated.values
        if np.all(x == x[0]):
            return None
        self.panes_since_refresh = 0
        max_window = window_cap(x.size, self.config.max_window if self.config else None)
        # find_window's ACF horizon: one lag past the cap.
        profile = find_peaks(autocorrelation(x, min(x.size - 1, max_window + 1)))
        seed = self.check_last_window(aggregated, profile=profile)
        result = find_window(aggregated, self.config, state=seed, profile=profile)
        self.last_result = result
        return result
