"""The three workloads, timed with tracing off.

Each is a closed loop driven from this one process: the next operation starts
when the previous one returns, with no worker threads or process pools. Every
operation's output is checked outside its timed region; a failed check counts
the operation as failed.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from asap.metrics import kurtosis
from asap.preagg import preaggregate
from asap.search import exhaustive_search, find_window
from asap.stream import StreamState

import fixtures as fx

SETUP_REPEATS = 3
TAIL_BLOCK = 1_000  # consecutive samples per p99, so >= 10 lie beyond it
CHUNK_POINTS = 10_000
CLI_TIMEOUT_S = 60


@dataclass
class Context:
    root: Path
    src: Path
    workdir: Path
    seed: int
    seconds: float
    import_s: float
    pinned: dict | None  # values pinned for the default seed, else None


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


@dataclass
class Outcome:
    tally: Tally
    metrics: dict[str, tuple[float, str]]  # BENCHMARK.json name -> (value, unit)
    report: list[str]  # the workload's metrics under their own names, for people
    fixture: dict
    observed: dict = field(default_factory=dict)  # what the pins compare against


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def tail_ms(samples: list[float]) -> tuple[float, str]:
    """The p99 of each block of TAIL_BLOCK consecutive samples, median over
    the blocks, so that one stalled stretch of a run moves one block only.
    The maximum when there is not one full block."""
    blocks = [sorted(samples[i:i + TAIL_BLOCK])
              for i in range(0, len(samples) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if not blocks:
        return max(samples) * 1e3, "max"
    return statistics.median(b[-(TAIL_BLOCK // 100) - 1] for b in blocks) * 1e3, "p99"


def median_rate(work: float, seconds: list[float]) -> float:
    """Work per second, median over the repetitions that each did `work`."""
    return statistics.median(work / s for s in seconds)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_setup(ctx: Context, build, warm_up):
    """Build the fixtures SETUP_REPEATS times, then run one warm-up operation.

    setup_s is import time + the median build + the warm-up: the time from
    workload start to the first timed operation as a single build would
    give it, not one stopwatch interval, so that one slow build does not
    move it.
    """
    builds = []
    for _ in range(SETUP_REPEATS):
        fixture = None  # drop the last build first, so peak RSS holds one copy
        started = perf_counter()
        fixture = build()
        builds.append(perf_counter() - started)
    started = perf_counter()
    warm_up(fixture)
    return fixture, ctx.import_s + statistics.median(builds) + (perf_counter() - started)


def search_problem(result, item: fx.CorpusItem, expected_window: int | None) -> str | None:
    """The search contract: window in range, kurtosis not lowered, and the
    same window as before for the same input."""
    if not 1 <= result.window <= item.max_window:
        return f"{item.name}: window {result.window} outside [1, {item.max_window}]"
    if kurtosis(result.smoothed.values) < item.target_kurtosis:
        return f"{item.name}: window {result.window} lowers kurtosis"
    if expected_window is not None and result.window != expected_window:
        return f"{item.name}: window {result.window}, expected {expected_window}"
    return None


# --- smooth-csv -------------------------------------------------------------

def cli_env(ctx: Context) -> dict:
    return dict(os.environ, PYTHONPATH=str(ctx.src))


def invoke_smooth(ctx: Context, csv: fx.CsvFixture):
    """One `asap smooth` process, spawn to exit: (wall seconds, process, meta)."""
    meta_path = csv.path.with_suffix(".meta.json")
    meta_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "asap.cli", "smooth",
        "--input", str(csv.path), "--resolution", str(fx.RESOLUTION), "--meta", str(meta_path),
    ]
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=cli_env(ctx), cwd=ctx.root,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - started, None, None
    wall = perf_counter() - started
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if proc.returncode == 0 else None
    return wall, proc, meta


def smooth_problem(proc, meta, expected_sha: str | None) -> str | None:
    if proc is None:
        return f"timed out after {CLI_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
    before, after = meta["kurtosis_before"], meta["kurtosis_after"]
    if before is None or after is None or after < before:
        return f"kurtosis {before} -> {after}"
    rows = proc.stdout.count(b"\n") - 1  # minus the header
    if rows != meta["aggregated_len"] - meta["window"] + 1:
        return f"{rows} rows for aggregated_len {meta['aggregated_len']}, window {meta['window']}"
    if expected_sha is not None and hashlib.sha256(proc.stdout).hexdigest() != expected_sha:
        return "stdout differs from the reference"
    return None


KINDS = ("int", "iso")  # the order write_smooth_csvs returns the files in


def run_smooth_csv(ctx: Context) -> Outcome:
    tally = Tally()
    pinned = ctx.pinned or {}
    expected: dict[str, str] = {}

    def warm_up(csvs):
        for csv, kind in zip(csvs, KINDS):
            _, proc, meta = invoke_smooth(ctx, csv)
            tally.record(smooth_problem(proc, meta, pinned.get(kind)))
            if proc is not None:
                expected[kind] = pinned.get(kind) or hashlib.sha256(proc.stdout).hexdigest()

    csvs, setup_s = timed_setup(ctx, lambda: fx.write_smooth_csvs(ctx.workdir, ctx.seed), warm_up)
    walls: dict[str, list[float]] = {kind: [] for kind in KINDS}
    deadline = perf_counter() + ctx.seconds
    while True:
        for csv, kind in zip(csvs, KINDS):
            wall, proc, meta = invoke_smooth(ctx, csv)
            walls[kind].append(wall)
            tally.record(smooth_problem(proc, meta, expected.get(kind)))
        if perf_counter() >= deadline:
            break
    for csv in csvs:
        csv.path.unlink()
        csv.path.with_suffix(".meta.json").unlink(missing_ok=True)

    n = len(walls["int"])
    tail, tail_kind = tail_ms(walls["int"])
    iterations = [a + b for a, b in zip(walls["int"], walls["iso"])]
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return Outcome(
        tally=tally,
        metrics={
            "op_p50_ms": (median_ms(walls["int"]), "ms"),
            "alt_p50_ms": (median_ms(walls["iso"]), "ms"),
            "rows_per_s": (median_rate(sum(csv.rows for csv in csvs), iterations), "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        },
        report=[
            f"smooth_s_p50 = {median_ms(walls['int']) / 1e3:.4f} s (n={n}, {tail_kind} {tail / 1e3:.4f} s)",
            f"smooth_iso_s_p50 = {median_ms(walls['iso']) / 1e3:.4f} s (n={len(walls['iso'])})",
            f"peak_rss_mb = {rss:.1f} MB (largest CLI child)",
        ],
        fixture={csv.path.name: {"rows": csv.rows, "bytes": csv.bytes} for csv in csvs},
        observed=dict(expected),
    )


# --- search-corpus ----------------------------------------------------------

def search_op(item: fx.CorpusItem):
    """preaggregate -> find_window (default config) -> the smoothed output."""
    result = find_window(preaggregate(item.raw, item.ratio))
    result.smoothed.values  # the caller's read of the output, inside the timed region
    return result


def oracle_pairs(corpus: list[fx.CorpusItem]) -> list[tuple[fx.CorpusItem, fx.CorpusItem]]:
    """The 800 px and 4 000 px items of one (shape, seed), scanned together.

    One oracle operation covers both: a median over two equal-sized groups
    whose latencies differ ~6x would sit in the gap between them and swing
    with a single sample.
    """
    small, large = fx.ORACLE_RESOLUTIONS
    by_key = {(i.shape, i.gen_seed, i.resolution): i for i in corpus}
    return [(i, by_key[i.shape, i.gen_seed, large]) for i in corpus if i.resolution == small]


def run_search_corpus(ctx: Context) -> Outcome:
    tally = Tally()
    pinned = ctx.pinned or {}
    expected: dict[str, int] = {}

    def warm_up(corpus):
        for item in corpus:
            result = search_op(item)
            tally.record(search_problem(result, item, pinned.get(item.name)))
            expected[item.name] = pinned.get(item.name, result.window)

    corpus, setup_s = timed_setup(ctx, lambda: fx.build_corpus(ctx.seed), warm_up)
    pairs = oracle_pairs(corpus)
    search_s: list[float] = []
    oracle_s: list[float] = []
    round_s: list[float] = []
    deadline = perf_counter() + ctx.seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        for item in corpus:
            started = perf_counter()
            result = search_op(item)
            search_s.append(perf_counter() - started)
            tally.record(search_problem(result, item, expected[item.name]))
        round_s.append(sum(search_s[-len(corpus):]))
        pair = pairs[rounds % len(pairs)]
        started = perf_counter()
        results = [exhaustive_search(item.aggregated) for item in pair]
        oracle_s.append(perf_counter() - started)
        problems = [search_problem(r, i, None) for r, i in zip(results, pair)]
        tally.record("; ".join(p for p in problems if p) or None)
        rounds += 1

    tail, tail_kind = tail_ms(search_s)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    return Outcome(
        tally=tally,
        metrics={
            "op_p50_ms": (median_ms(search_s), "ms"),
            "alt_p50_ms": (median_ms(oracle_s), "ms"),
            "rows_per_s": (median_rate(sum(len(i.raw) for i in corpus), round_s), "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        },
        report=[
            f"search_ms_p50 = {median_ms(search_s):.4f} ms (n={len(search_s)})",
            f"search_ms_{tail_kind} = {tail:.4f} ms (n={len(search_s)})",
            f"oracle_ms_p50 = {median_ms(oracle_s):.4f} ms (n={len(oracle_s)}, 800 px + 4000 px scan)",
            f"peak_rss_mb = {rss:.1f} MB",
        ],
        fixture={"items": len(corpus), "raw_points": sum(len(i.raw) for i in corpus)},
        observed=dict(expected),
    )


# --- stream-replay ----------------------------------------------------------

def new_stream() -> StreamState:
    return StreamState(pane_span=fx.PANE_SPAN, capacity=fx.CAPACITY,
                       refresh_interval=fx.REFRESH_INTERVAL)


def refresh_problem(state: StreamState, result) -> str | None:
    x = state.aggregated().values
    max_window = fx.max_window(x.size)
    if not 1 <= result.window <= max_window:
        return f"refresh window {result.window} outside [1, {max_window}]"
    if kurtosis(result.smoothed.values) < kurtosis(x):
        return f"refresh window {result.window} lowers kurtosis"
    return None


def replay(feed: fx.StreamFeed, tally: Tally, refresh_s: list[float], chunk_s: list[float]) -> list[int]:
    """Feed every point through ingest + maybe_refresh; returns the refresh
    windows. Checks run with the chunk clock paused."""
    state = new_stream()
    ingest, maybe_refresh = state.ingest, state.maybe_refresh
    windows: list[int] = []
    rejected = 0
    for lo in range(0, len(feed.late), CHUNK_POINTS):
        hi = lo + CHUNK_POINTS
        chunk = zip(feed.timestamps[lo:hi].tolist(), feed.values[lo:hi].tolist(),
                    feed.late[lo:hi].tolist())
        paused = 0.0
        started = perf_counter()
        for t, v, late in chunk:
            try:
                ingest(t, v)
            except ValueError:
                if late:
                    tally.record(None)
                else:
                    rejected += 1
                    tally.record(f"in-order point at {t} rejected")
                continue
            if late:
                tally.record(f"late point at {t} accepted")
                continue
            before = perf_counter()
            result = maybe_refresh()
            if result is not None:
                after = perf_counter()
                refresh_s.append(after - before)
                windows.append(result.window)
                tally.record(refresh_problem(state, result))
                paused += perf_counter() - after
        chunk_s.append(perf_counter() - started - paused)
    tally.attempted += feed.in_order - rejected  # accepted in-order points, each a passed check
    return windows


def windows_digest(windows: list[int]) -> str:
    return hashlib.sha256(json.dumps(windows).encode()).hexdigest()


def run_stream_replay(ctx: Context) -> Outcome:
    tally = Tally()
    pinned = (ctx.pinned or {}).get("refresh_windows_sha256")
    expected: dict[str, str] = {}

    def warm_up(feed):
        digest = windows_digest(replay(feed, tally, [], []))
        if pinned is not None and digest != pinned:
            tally.record("refresh windows differ from the pinned sequence")
        expected["refresh_windows_sha256"] = pinned or digest

    feed, setup_s = timed_setup(ctx, lambda: fx.load_stream_feed(ctx.workdir, ctx.seed, cli_env(ctx)), warm_up)
    refresh_s: list[float] = []
    chunk_s: list[float] = []
    pass_s: list[float] = []
    deadline = perf_counter() + ctx.seconds
    while not pass_s or perf_counter() < deadline:
        done = len(chunk_s)
        digest = windows_digest(replay(feed, tally, refresh_s, chunk_s))
        pass_s.append(sum(chunk_s[done:]))
        if digest != expected["refresh_windows_sha256"]:
            tally.record(f"pass {len(pass_s)}: refresh windows differ from the reference")

    passes = len(pass_s)
    pts_per_s = median_rate(feed.in_order, pass_s)
    tail, tail_kind = tail_ms(refresh_s)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    return Outcome(
        tally=tally,
        metrics={
            "op_p50_ms": (median_ms(refresh_s), "ms"),
            "alt_p50_ms": (median_ms(chunk_s), "ms"),
            "rows_per_s": (pts_per_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        },
        report=[
            f"stream_pts_per_s = {pts_per_s:.1f} points/s ({passes} passes of {feed.in_order} points)",
            f"refresh_ms_p50 = {median_ms(refresh_s):.4f} ms (n={len(refresh_s)})",
            f"refresh_ms_{tail_kind} = {tail:.4f} ms (n={len(refresh_s)})",
            f"chunk_ms_p50 = {median_ms(chunk_s):.4f} ms per {CHUNK_POINTS} fed points (n={len(chunk_s)})",
            f"peak_rss_mb = {rss:.1f} MB",
        ],
        fixture={"points": feed.in_order, "late_points": len(feed.late) - feed.in_order},
        observed=dict(expected),
    )


WORKLOADS = {
    "smooth-csv": run_smooth_csv,
    "search-corpus": run_search_corpus,
    "stream-replay": run_stream_replay,
}
