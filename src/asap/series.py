"""Timestamped series container shared by every stage of the pipeline."""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np


def point_error(last: int, t: int, v: float) -> str | None:
    """Why the point (t, v) cannot follow a point stamped `last`, or None
    when it can: its value must be finite and its stamp an int64 no smaller
    than `last`. The one wording of these rejections: the line parser raises
    it with a line number, and `StreamState.ingest` as it is.

    Callers test `isfinite(v) and last <= t < 2**63` inline and call this
    only on a row that fails: a call per row would show in their per-row
    cost."""
    if not isfinite(v):
        return f"non-finite value {v!r}"
    if not -(2**63) <= t < 2**63:
        return f"timestamp {t} outside the int64 range"
    if t < last:
        return f"out-of-order point: {t} after {last}"
    return None


def _exact_int64(raw: np.ndarray) -> np.ndarray:
    """raw as int64, or a ValueError unless each stamp is an integer that
    int64 holds: a plain cast would truncate 1.5 and wrap uint64 2**63."""
    try:
        with np.errstate(invalid="ignore"):
            ts = raw.astype(np.int64)
        # An int64 and a uint64 or float compare as floats, so a wrapped or
        # truncated stamp differs from its source; a float cast may instead
        # saturate at 2**63 - 1, which compares equal to 2.0**63.
        exact = bool(np.all(ts == raw)) and not (raw.dtype.kind == "f" and (raw >= 2.0**63).any())
    except (OverflowError, TypeError, ValueError):
        exact = False
    if not exact:
        raise ValueError("timestamps must be integers within the int64 range")
    return ts


@dataclass(frozen=True)
class Series:
    """Ordered samples: epoch-millisecond timestamps paired with finite values."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        if ts.dtype != np.int64:
            ts = _exact_int64(ts)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vals.ndim != 1:
            raise ValueError("timestamps and values must be one-dimensional")
        if ts.size != vals.size:
            raise ValueError("timestamps and values must have equal length")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        # Compared, not differenced: an int64 difference can wrap around.
        if (ts[1:] < ts[:-1]).any():
            raise ValueError("timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _unchecked(cls, timestamps: np.ndarray, values: np.ndarray) -> "Series":
        """A Series of arrays its caller has already proven valid, with no
        check run: one-dimensional int64 timestamps, non-decreasing, and
        float64 values, all finite, of the same length. A stream refresh
        builds two Series, and on its ~1 000 points the checks cost a third
        of what evaluating one window does."""
        series = object.__new__(cls)
        object.__setattr__(series, "timestamps", timestamps)
        object.__setattr__(series, "values", values)
        return series

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def from_values(cls, values) -> "Series":
        """Wrap bare values with timestamps 0, 1, 2, ..."""
        vals = np.asarray(values, dtype=np.float64)
        return cls(np.arange(vals.size, dtype=np.int64), vals)
