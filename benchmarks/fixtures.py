"""Seeded inputs for the three workloads, built from asap.generators.

Every input is a pure function of the workload seed, so two runs with the same
seed see identical bytes. Nothing here is timed as an operation; building the
fixtures is part of set-up time.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asap.generators import GENERATORS, noisy_sine, trend_seasonal
from asap.io import write_series
from asap.metrics import kurtosis
from asap.preagg import point_to_pixel_ratio, preaggregate
from asap.series import Series

RESOLUTION = 800

# smooth-csv: the ROADMAP Baseline fixture plus an ISO-8601 file that takes
# the datetime branch of the same parser.
SMOOTH_ROWS = 1_000_000
SMOOTH_PERIOD = 20_000
ISO_ROWS = 250_000
ISO_PERIOD = 5_000
ISO_EPOCH = np.datetime64("2024-01-01T00:00:00", "s")
NOISE = 0.4

# search-corpus: every generator shape at three pixel widths, raw length 5x.
SHAPES = ("sine", "trend", "gaussian", "laplace", "spike", "uniform")
RESOLUTIONS = (800, 4_000, 20_000)
ORACLE_RESOLUTIONS = (800, 4_000)
SEEDS_PER_SHAPE = 3
RAW_PER_PIXEL = 5

# stream-replay: the ROADMAP Baseline StreamState configuration.
STREAM_POINTS = 1_000_000
STREAM_PERIOD = 30_000
PANE_SPAN = 100
CAPACITY = 1_200
REFRESH_INTERVAL = 10
LATE_EVERY = 1_000


def max_window(n: int, cap: int | None = None) -> int:
    """The largest window find_window considers on n points: the cap
    (default n // 10), kept within [1, n - 1]."""
    return max(1, min(n // 10 if cap is None else cap, n - 1))


@dataclass(frozen=True)
class CsvFixture:
    path: Path
    rows: int
    bytes: int


def write_smooth_csvs(workdir: Path, seed: int) -> tuple[CsvFixture, CsvFixture]:
    """The int-ms file (written by write_series) and the ISO-8601 file."""
    int_path = workdir / f"smooth-int-{seed}.csv"
    with open(int_path, "w", encoding="utf-8") as fh:
        write_series(noisy_sine(SMOOTH_ROWS, period=SMOOTH_PERIOD, noise=NOISE, seed=seed), fh)
    iso_path = workdir / f"smooth-iso-{seed}.csv"
    values = noisy_sine(ISO_ROWS, period=ISO_PERIOD, noise=NOISE, seed=seed).values
    stamps = np.datetime_as_string(ISO_EPOCH + np.arange(ISO_ROWS).astype("timedelta64[s]"), unit="s")
    with open(iso_path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,value\n")
        fh.writelines(f"{t}Z,{v!r}\n" for t, v in zip(stamps.tolist(), values.tolist()))
    return (
        CsvFixture(int_path, SMOOTH_ROWS, int_path.stat().st_size),
        CsvFixture(iso_path, ISO_ROWS, iso_path.stat().st_size),
    )


@dataclass(frozen=True)
class CorpusItem:
    shape: str
    resolution: int
    gen_seed: int
    raw: Series
    ratio: int
    aggregated: Series
    target_kurtosis: float
    max_window: int

    @property
    def name(self) -> str:
        return f"{self.shape}/{self.resolution}/{self.gen_seed}"


def build_corpus(seed: int) -> list[CorpusItem]:
    """6 shapes x 3 resolutions x 3 generator seeds, in round-robin order."""
    items = []
    for shape in SHAPES:
        for resolution in RESOLUTIONS:
            for k in range(SEEDS_PER_SHAPE):
                gen_seed = seed * SEEDS_PER_SHAPE + k
                raw = GENERATORS[shape](RAW_PER_PIXEL * resolution, gen_seed)
                ratio = point_to_pixel_ratio(len(raw), resolution)
                aggregated = preaggregate(raw, ratio)
                items.append(CorpusItem(
                    shape=shape,
                    resolution=resolution,
                    gen_seed=gen_seed,
                    raw=raw,
                    ratio=ratio,
                    aggregated=aggregated,
                    target_kurtosis=kurtosis(aggregated.values),
                    max_window=max_window(len(aggregated)),
                ))
    return items


@dataclass(frozen=True)
class StreamFeed:
    """Points in delivery order; late[i] marks a point that arrives with a
    timestamp below the one before it and must be rejected. The arrays are
    turned into Python numbers a chunk at a time as they are replayed, so
    that the feed adds little to the process's peak RSS."""

    timestamps: np.ndarray  # int64
    values: np.ndarray
    late: np.ndarray

    @property
    def in_order(self) -> int:
        return len(self.late) - int(np.count_nonzero(self.late))


def build_stream_feed(seed: int) -> StreamFeed:
    series = trend_seasonal(STREAM_POINTS, period=STREAM_PERIOD, seed=seed)
    ts, vs = series.timestamps, series.values
    rng = np.random.default_rng(seed)
    at = np.sort(rng.choice(np.arange(1, STREAM_POINTS), size=STREAM_POINTS // LATE_EVERY, replace=False))
    late_ts = ts[at - 1] - 1 - rng.integers(0, 50, size=at.size)
    return StreamFeed(
        timestamps=np.insert(ts, at, late_ts),
        values=np.insert(vs, at, vs[at - 1]),
        late=np.insert(np.zeros(STREAM_POINTS, dtype=bool), at, True),
    )


def load_stream_feed(workdir: Path, seed: int, env: dict) -> StreamFeed:
    """build_stream_feed run in a child process, its arrays loaded here.

    Generating 1M points peaks at ~74 MB, far above what replaying them needs;
    built in this process, that transient would set its peak RSS and hide any
    growth of the stream path below it.
    """
    path = workdir / f"stream-feed-{seed}.npz"
    subprocess.run([sys.executable, __file__, str(seed), str(path)], env=env, check=True)
    with np.load(path) as arrays:
        feed = StreamFeed(arrays["timestamps"], arrays["values"], arrays["late"])
    path.unlink()
    return feed


if __name__ == "__main__":
    built = build_stream_feed(int(sys.argv[1]))
    np.savez(sys.argv[2], timestamps=built.timestamps, values=built.values, late=built.late)
