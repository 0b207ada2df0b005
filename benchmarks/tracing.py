"""The traced run: spans around each call into an asap module, and the
per-layer metrics derived from them.

A span wraps one call across a layer boundary, as the calling module binds the
name (asap.cli.read_series, asap.search.kurtosis, asap.stream.find_window, ...),
so the program itself is not edited. Spans stay in memory and are written out
when the run ends. A layer's self time is its spans' durations minus the part
covered by their child spans.

End-to-end numbers are never taken here; the same workload is also run
untraced inside this run, and the ratio of the two is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import asap.cli
import asap.search
import asap.stream
from asap.search import exhaustive_search

import fixtures as fx
import workloads as wl

ROUNDS = 3  # traced/untraced repetitions on smooth-csv and stream-replay

# Every per-layer metric, with its unit. Times and counts are per operation:
# per 1M-row invocation on smooth-csv, per search on search-corpus and per
# refresh on stream-replay. A layer the workload does not reach reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.meta_elapsed_share": "ratio",
    "cli.self_ms": "ms",
    "io.parse_ms": "ms",
    "io.parse_iso_ms": "ms",
    "io.parse_us_per_row": "us",
    "io.bytes_in": "bytes",
    "io.write_ms": "ms",
    "preagg.ms": "ms",
    "preagg.ratio": "count",
    "acf.ms": "ms",
    "acf.fft_size": "count",
    "acf.peaks": "count",
    "search.self_ms": "ms",
    "search.candidates_evaluated": "count",
    "search.pruned_share": "ratio",
    "search.oracle_mismatch": "count",
    "search.worst_roughness_ratio": "ratio",
    "smoothing.materialize_ms": "ms",
    "smoothing.self_ms": "ms",
    "metrics.kurtosis_calls": "count",
    "metrics.roughness_calls": "count",
    "metrics.ms": "ms",
    "stream.ingest_us_per_pt": "us",
    "stream.aggregated_ms": "ms",
    "stream.seed_check_ms": "ms",
    "stream.seeded_share": "ratio",
    "stream.late_rejected": "count",
    "stream.self_ms": "ms",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.accounted_share": "ratio",
}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    request: int
    note: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _search_note(args, kwargs, result):
    """(candidates evaluated, max_window) of one find_window call."""
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return result.candidates_evaluated, fx.max_window(len(args[0]), config and config.max_window)


def _fft_size(args, kwargs, result):
    return 1 << (2 * len(args[0]) - 1).bit_length()


def _peaks(args, kwargs, result):
    return len(result.peaks)


def _seed_window(args, kwargs, result):
    return result.window


def _refreshed(result, parent):
    return result is not None  # most calls return None at once; keep the refreshes


def _nested(result, parent):
    return parent is not None  # a call from the benchmark's own checks is not a span


# (owner, attribute, layer, note, keep). The benchmark's own workloads module
# is an owner too: search-corpus calls preaggregate and find_window from there.
BOUNDARIES = [
    (asap.cli, "main", "cli", None, None),
    (asap.cli, "read_series", "io", None, None),
    (asap.cli, "write_series", "io", None, None),
    (asap.cli, "preaggregate", "preagg", None, None),
    (asap.cli, "find_window", "search", _search_note, None),
    (asap.cli, "kurtosis", "metrics", None, None),
    (wl, "preaggregate", "preagg", None, None),
    (wl, "find_window", "search", _search_note, None),
    (asap.search, "autocorrelation", "acf", _fft_size, None),
    (asap.search, "find_peaks", "acf", _peaks, None),
    (asap.search, "kurtosis", "metrics", None, None),
    (asap.search, "roughness", "metrics", None, None),
    (asap.search, "smooth_series", "smoothing", None, None),
    (asap.search, "_prefix_sums", "smoothing", None, None),
    (asap.search, "_sma_from_prefix", "smoothing", None, None),
    (asap.stream.StreamState, "maybe_refresh", "stream", None, _refreshed),
    (asap.stream.StreamState, "aggregated", "stream", None, _nested),
    (asap.stream.StreamState, "check_last_window", "stream", _seed_window, None),
    (asap.stream, "find_window", "search", _search_note, None),
    (asap.stream, "autocorrelation", "acf", _fft_size, None),
    (asap.stream, "find_peaks", "acf", _peaks, None),
    (asap.stream, "kurtosis", "metrics", None, None),
    (asap.stream, "roughness", "metrics", None, None),
    (asap.stream, "sma", "smoothing", None, None),
]


class Tracer:
    """Patches BOUNDARIES while active and records one Span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, owner, attr: str, layer: str, note, keep) -> None:
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__module__', '')}.{owner.__qualname__}" if isinstance(owner, type) \
            else owner.__name__
        name = f"{name}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            if keep is None or keep(result, parent):
                self.spans.append(Span(sid, parent, name, layer, start, end, self.request,
                                       note(args, kwargs, result) if note else None))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, note, keep in BOUNDARIES:
            self._wrap(owner, attr, layer, note, keep)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def self_seconds(spans: list[Span]) -> dict[str, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        layers[span.layer] += span.seconds - covered[span.id]
    return layers


def summarize(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of `ops` operations."""
    own = self_seconds(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name.rsplit(".", 1)[1]].append(span)

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    def mean_note(name: str) -> float:
        notes = [s.note for s in named[name]]
        return statistics.fmean(notes) if notes else 0.0

    searches = [s.note for s in named["find_window"]]
    checks = named["check_last_window"]
    return {
        "cli.self_ms": per_op_ms(own["cli"]),
        "io.write_ms": per_op_ms(sum(s.seconds for s in named["write_series"])),
        "preagg.ms": per_op_ms(own["preagg"]),
        "acf.ms": per_op_ms(own["acf"]),
        "acf.fft_size": mean_note("autocorrelation"),
        "acf.peaks": mean_note("find_peaks"),
        "search.self_ms": per_op_ms(own["search"]),
        "search.candidates_evaluated": statistics.fmean(c for c, _ in searches) if searches else 0.0,
        "search.pruned_share": statistics.fmean(1 - c / mw for c, mw in searches) if searches else 0.0,
        "smoothing.materialize_ms": per_op_ms(sum(s.seconds for s in named["smooth_series"])),
        "smoothing.self_ms": per_op_ms(own["smoothing"]),
        "metrics.kurtosis_calls": len(named["kurtosis"]) / ops,
        "metrics.roughness_calls": len(named["roughness"]) / ops,
        "metrics.ms": per_op_ms(own["metrics"]),
        "stream.aggregated_ms": per_op_ms(sum(s.seconds for s in named["aggregated"])),
        "stream.seed_check_ms": per_op_ms(sum(s.seconds for s in checks)),
        "stream.seeded_share": sum(s.note > 1 for s in checks) / len(checks) if checks else 0.0,
        "stream.self_ms": per_op_ms(own["stream"]),
        "trace.spans": float(len(spans)),
    }


def oracle_gap(items: list[fx.CorpusItem]) -> tuple[int, float]:
    """Items where find_window picks another window than the exhaustive scan,
    and the worst asap/exhaustive roughness ratio over all items."""
    mismatches, worst = 0, 1.0
    for item in items:
        chosen, best = wl.search_op(item), exhaustive_search(item.aggregated)
        mismatches += chosen.window != best.window
        if best.roughness > 0:
            worst = max(worst, chosen.roughness / best.roughness)
    return mismatches, worst


def _outcome(tally, tracer, layers, report, fixture) -> wl.Outcome:
    metrics = {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    own = self_seconds(tracer.spans)
    report = report + [f"self time of {layer}, whole traced run = {s:.6f} s" for layer, s in sorted(own.items())]
    return wl.Outcome(tally=tally, metrics=metrics, report=report, fixture=fixture)


# --- smooth-csv -------------------------------------------------------------

def _subprocess_wall(ctx: wl.Context, code: str) -> float:
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=wl.cli_env(ctx), cwd=ctx.root,
                   check=True, timeout=wl.CLI_TIMEOUT_S)
    return perf_counter() - started


def _main_in_process(csv: fx.CsvFixture) -> tuple[int, bytes, float]:
    argv = ["smooth", "--input", str(csv.path), "--resolution", str(fx.RESOLUTION),
            "--meta", str(csv.path.with_suffix(".meta.json"))]
    out = io.StringIO()
    started = perf_counter()
    with contextlib.redirect_stdout(out):
        code = asap.cli.main(argv)
    return code, out.getvalue().encode(), perf_counter() - started


def trace_smooth_csv(ctx: wl.Context, tracer: Tracer) -> wl.Outcome:
    """Three rounds of: the CLI in a subprocess, main() in-process untraced,
    main() in-process traced, so all three see the same machine state."""
    tally = wl.Tally()
    int_csv, iso_csv = fx.write_smooth_csvs(ctx.workdir, ctx.seed)
    import_s = statistics.median(_subprocess_wall(ctx, "import asap.cli") for _ in range(ROUNDS))
    reference = (ctx.pinned or {}).get("int")
    walls, shares, untraced, traced = [], [], [], []
    for _ in range(ROUNDS):
        wall, proc, meta = wl.invoke_smooth(ctx, int_csv)
        problem = wl.smooth_problem(proc, meta, reference)
        tally.record(problem)
        walls.append(wall)
        if problem is None:
            reference = hashlib.sha256(proc.stdout).hexdigest()
            shares.append(meta["elapsed_seconds"] / wall)
        code, _, seconds = _main_in_process(int_csv)
        untraced.append(seconds)
        tally.record(None if code == 0 else f"in-process exit {code}")
        with tracer:
            _, stdout, seconds = _main_in_process(int_csv)
        traced.append(seconds)
        tally.record(None if hashlib.sha256(stdout).hexdigest() == reference
                     else "traced stdout differs from the CLI's")
    tracer.request = 1
    with tracer:
        code, _, _ = _main_in_process(iso_csv)
    tally.record(None if code == 0 else f"in-process exit {code}")
    for csv in (int_csv, iso_csv):
        csv.path.unlink()
        csv.path.with_suffix(".meta.json").unlink(missing_ok=True)

    smooth_s = statistics.median(walls)
    spans = [s for s in tracer.spans if s.request == 0]
    layers = summarize(spans, ops=ROUNDS)
    own = self_seconds(spans)
    accounted = import_s + sum(own[layer] for layer in
                               ("io", "preagg", "acf", "search", "smoothing", "metrics")) / ROUNDS
    parse_ms, parse_iso_ms = (
        sum(s.seconds for s in tracer.spans if s.request == r and s.name.endswith(".read_series")) * 1e3
        for r in (0, 1))
    parse_ms /= ROUNDS
    layers.update({
        "cli.import_s": import_s,
        "cli.meta_elapsed_share": statistics.median(shares) if shares else 0.0,
        "io.parse_ms": parse_ms,
        "io.parse_iso_ms": parse_iso_ms,
        "io.parse_us_per_row": parse_ms * 1e3 / int_csv.rows,
        "io.bytes_in": float(int_csv.bytes),
        "preagg.ratio": float(fx.SMOOTH_ROWS // fx.RESOLUTION),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1,
        "trace.spans": float(len(tracer.spans)),
        "trace.accounted_share": accounted / smooth_s,
    })
    report = [
        f"smooth_s_p50 (untraced subprocess) = {smooth_s:.4f} s (n={len(walls)})",
        f"accounted = import {import_s:.4f} s + layer self times = {accounted:.4f} s "
        f"({accounted / smooth_s:.1%} of smooth_s_p50)",
    ]
    return _outcome(tally, tracer, layers, report,
                    {csv.path.name: {"rows": csv.rows, "bytes": csv.bytes} for csv in (int_csv, iso_csv)})


# --- search-corpus ----------------------------------------------------------

def _corpus_round(corpus, expected, tally) -> float:
    total = 0.0
    for item in corpus:
        started = perf_counter()
        result = wl.search_op(item)
        total += perf_counter() - started
        tally.record(wl.search_problem(result, item, expected[item.name]))
    return total


def trace_search_corpus(ctx: wl.Context, tracer: Tracer) -> wl.Outcome:
    """Untraced and traced rounds alternate for the run's length."""
    tally = wl.Tally()
    corpus = fx.build_corpus(ctx.seed)
    pinned = ctx.pinned or {}
    expected = {item.name: pinned.get(item.name, wl.search_op(item).window) for item in corpus}
    untraced = traced = 0.0
    started, rounds = perf_counter(), 0
    while rounds == 0 or perf_counter() - started < ctx.seconds:
        untraced += _corpus_round(corpus, expected, tally)
        with tracer:
            traced += _corpus_round(corpus, expected, tally)
        rounds += 1
    checked = [i for i in corpus if i.resolution in fx.ORACLE_RESOLUTIONS]
    mismatches, worst = oracle_gap(checked)

    ops = rounds * len(corpus)
    layers = summarize(tracer.spans, ops)
    layers.update({
        "preagg.ratio": float(fx.RAW_PER_PIXEL),
        "search.oracle_mismatch": float(mismatches),
        "search.worst_roughness_ratio": worst,
        "trace.overhead": traced / untraced - 1,
    })
    report = [f"traced {ops} searches ({rounds} rounds of {len(corpus)} items)",
              f"oracle: {mismatches} of {len(checked)} items differ, worst roughness ratio {worst:.4f}"]
    return _outcome(tally, tracer, layers, report, {"items": len(corpus)})


# --- stream-replay ----------------------------------------------------------

def trace_stream_replay(ctx: wl.Context, tracer: Tracer) -> wl.Outcome:
    """An ingest-only pass, then untraced and traced passes in turn."""
    tally = wl.Tally()
    feed = fx.build_stream_feed(ctx.seed)
    ingest, late_rejected = wl.new_stream().ingest, 0
    timestamps, values = feed.timestamps.tolist(), feed.values.tolist()
    started = perf_counter()
    for t, v in zip(timestamps, values):
        try:
            ingest(t, v)
        except ValueError:
            late_rejected += 1
    ingest_s = perf_counter() - started
    tally.record(None if late_rejected == len(feed.late) - feed.in_order
                 else f"ingest-only loop rejected {late_rejected} points")

    pinned = (ctx.pinned or {}).get("refresh_windows_sha256")
    untraced: list[float] = []
    traced: list[float] = []
    refreshes: list[float] = []
    for _ in range(ROUNDS):
        digest = wl.windows_digest(wl.replay(feed, tally, [], untraced))
        with tracer:
            tally.record(None if wl.windows_digest(wl.replay(feed, tally, refreshes, traced)) == digest
                         else "traced refresh windows differ")
        tally.record(None if pinned in (None, digest) else "refresh windows differ from the pinned sequence")

    layers = summarize(tracer.spans, ops=len(refreshes))
    layers.update({
        "preagg.ratio": float(fx.PANE_SPAN),
        "stream.ingest_us_per_pt": ingest_s * 1e6 / len(feed.late),
        "stream.late_rejected": float(late_rejected),
        "trace.overhead": sum(traced) / sum(untraced) - 1,
    })
    report = [f"traced {ROUNDS} passes: {feed.in_order} points, {len(refreshes)} refreshes"]
    return _outcome(tally, tracer, layers, report, {"points": feed.in_order})


TRACED = {
    "smooth-csv": trace_smooth_csv,
    "search-corpus": trace_search_corpus,
    "stream-replay": trace_stream_replay,
}
