"""Timestamped series container shared by every stage of the pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Series:
    """Ordered samples: epoch-millisecond timestamps paired with finite values."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
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

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def from_values(cls, values) -> "Series":
        """Wrap bare values with timestamps 0, 1, 2, ..."""
        vals = np.asarray(values, dtype=np.float64)
        return cls(np.arange(vals.size, dtype=np.int64), vals)
