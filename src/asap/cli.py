"""Command line entry points: smooth, stream, bench, plot.

Exit codes: 0 on success, 1 for input problems (unreadable file, bad rows,
too little data), 2 for configuration problems (bad flags or values).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from .generators import GENERATORS
from .io import ParseError, iter_rows, read_series, write_series
from .metrics import kurtosis, zscore
from .preagg import point_to_pixel_ratio, preaggregate
from .search import SmoothResult, binary_only_search, exhaustive_search, find_window, grid_search
from .series import Series
from .stream import StreamState
from .svg import render_overlay

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2

# Strategy name -> search over the preaggregated series under --max-window
# (None: the default cap). The asap entry looks find_window up when called.
STRATEGIES = {
    "asap": lambda s, mw: find_window(s, max_window=mw),
    "exhaustive": exhaustive_search,
    "grid2": lambda s, mw: grid_search(s, 2, mw),
    "grid10": lambda s, mw: grid_search(s, 10, mw),
    "binary": binary_only_search,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None = None
    use_stdin: bool = False
    out: str | None = None
    meta: str | None = None
    resolution: int = 800
    max_window: int | None = None
    strategy: str = "asap"
    refresh_interval: int = 1
    ratio: int | None = None
    zscore: bool = False
    strict: bool = False
    gen: str | None = None
    gen_points: int = 10000
    seed: int = 0

    def validate(self) -> str | None:
        if self.resolution < 2:
            return "resolution must be >= 2"
        if self.max_window is not None and self.max_window < 1:
            return "max-window must be >= 1"
        if self.refresh_interval < 1:
            return "refresh must be >= 1"
        if self.ratio is not None and self.ratio < 1:
            return "ratio must be >= 1"
        if self.gen_points < 4:
            return "gen-points must be >= 4"
        return None


def _load_series(cfg: RunConfig) -> Series:
    source = sys.stdin if cfg.use_stdin else cfg.input
    series = read_series(source)
    if len(series) < 4:
        raise ParseError(0, "need at least 4 data rows")
    return series


def _json_number(value: float) -> float | None:
    """value, or None (JSON null) for NaN and the infinities, which JSON
    cannot represent."""
    return value if math.isfinite(value) else None


def cmd_smooth(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    if cfg.zscore:
        series = zscore(series)
    started = time.perf_counter()
    ratio = point_to_pixel_ratio(len(series), cfg.resolution)
    aggregated = preaggregate(series, ratio)
    result = STRATEGIES[cfg.strategy](aggregated, cfg.max_window)
    elapsed = time.perf_counter() - started
    try:
        kurtosis_before = kurtosis(aggregated.values)
    except ValueError:
        kurtosis_before = math.nan  # constant input
    meta = {
        "window": result.window,
        "raw_len": len(series),
        "aggregated_len": len(aggregated),
        "ratio": ratio,
        "roughness": _json_number(result.roughness),
        "kurtosis_before": _json_number(kurtosis_before),
        "kurtosis_after": _json_number(result.kurtosis),
        "candidates_evaluated": result.candidates_evaluated,
        "elapsed_seconds": elapsed,
        "strategy": result.strategy,
    }
    rendered = json.dumps(meta, sort_keys=True, allow_nan=False)
    # Diagnostics first: they must land even if whoever reads stdout hangs up
    # partway through the CSV.
    if cfg.meta:
        with open(cfg.meta, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered, file=sys.stderr)
    write_series(result.smoothed, sys.stdout)
    return EXIT_OK


def cmd_stream(cfg: RunConfig) -> int:
    if cfg.use_stdin:
        rows = iter_rows(sys.stdin)
        ratio = cfg.ratio or 1
    else:
        with open(cfg.input, encoding="utf-8") as fh:
            buffered = list(iter_rows(fh))
        rows = iter(buffered)
        ratio = cfg.ratio or max(1, len(buffered) // cfg.resolution)
    state = StreamState(
        pane_span=ratio,
        capacity=cfg.resolution,
        refresh_interval=cfg.refresh_interval,
        max_window=cfg.max_window,
    )
    consumed = 0
    refreshes = 0
    started = time.perf_counter()
    for lineno, t, v in rows:
        try:
            state.ingest(t, v)
        except ValueError as exc:
            if cfg.strict:
                print(f"error: line {lineno}: {exc}", file=sys.stderr)
                return EXIT_INPUT
            print(f"warning: line {lineno}: dropped ({exc})", file=sys.stderr)
            continue
        consumed += 1
        result = state.maybe_refresh()
        if result is not None:
            refreshes += 1
            record = {
                "refresh_index": refreshes,
                "window": result.window,
                "roughness": _json_number(result.roughness),
                "kurtosis": _json_number(result.kurtosis),
                "points_consumed": consumed,
            }
            print(json.dumps(record, sort_keys=True, allow_nan=False))
    elapsed = time.perf_counter() - started
    rate = consumed / elapsed if elapsed > 0 else float(consumed)
    print(f"throughput: {rate:.1f} points/s ({consumed} points, {refreshes} refreshes)", file=sys.stderr)
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.gen:
        series = GENERATORS[cfg.gen](cfg.gen_points, cfg.seed)
    else:
        series = _load_series(cfg)
    aggregated = preaggregate(series, point_to_pixel_ratio(len(series), cfg.resolution))
    runs: list[tuple[SmoothResult, float]] = []
    for search in STRATEGIES.values():
        started = time.perf_counter()
        result = search(aggregated, cfg.max_window)
        runs.append((result, time.perf_counter() - started))
    baseline = next(r.roughness for r, _ in runs if r.strategy == "exhaustive")
    print(f"{'strategy':<12}{'window':>8}{'roughness':>14}{'vs_exhaustive':>15}{'candidates':>12}{'ms':>10}")
    for result, seconds in runs:
        if baseline > 0:
            rel = result.roughness / baseline
        else:
            rel = 1.0 if result.roughness == baseline else math.inf
        print(
            f"{result.strategy:<12}{result.window:>8}{result.roughness:>14.6g}"
            f"{rel:>15.4f}{result.candidates_evaluated:>12}{seconds * 1000:>10.2f}"
        )
    return EXIT_OK


def cmd_plot(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    try:
        series = zscore(series)
    except ValueError:
        pass  # constant input: plot it untransformed
    aggregated = preaggregate(series, point_to_pixel_ratio(len(series), cfg.resolution))
    result = STRATEGIES[cfg.strategy](aggregated, cfg.max_window)
    document = render_overlay(aggregated, result.smoothed, width=cfg.resolution)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    return EXIT_OK


_HANDLERS = {
    "smooth": cmd_smooth,
    "stream": cmd_stream,
    "bench": cmd_bench,
    "plot": cmd_plot,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asap",
        description="Smooth time series for plotting by picking the moving-average "
        "window automatically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        # Options left out stay out of the namespace, so RunConfig's field
        # defaults are the only ones.
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    smooth = add("smooth", "smooth a CSV file and emit the result as CSV")
    smooth.add_argument("--input", required=True, help="CSV file: [timestamp,]value")
    smooth.add_argument("--resolution", type=int, help="target pixel width")
    smooth.add_argument("--max-window", type=int)
    smooth.add_argument("--strategy", choices=STRATEGIES)
    smooth.add_argument("--zscore", action="store_true", help="normalize values first")
    smooth.add_argument("--meta", help="write the JSON diagnostics here instead of stderr")

    stream = add("stream", "replay rows through the streaming refresher")
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument("--input")
    source.add_argument("--stdin", action="store_true", dest="use_stdin")
    stream.add_argument("--refresh", type=int, required=True, dest="refresh_interval",
                        metavar="REFRESH", help="panes between searches")
    stream.add_argument("--resolution", type=int, help="pane capacity")
    stream.add_argument("--ratio", type=int, help="points per pane")
    stream.add_argument("--max-window", type=int)
    stream.add_argument("--strict", action="store_true", help="abort on out-of-order or non-finite rows")

    bench = add("bench", "compare every strategy on one input")
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--input")
    source.add_argument("--gen", choices=sorted(GENERATORS))
    bench.add_argument("--seed", type=int)
    bench.add_argument("--gen-points", type=int)
    bench.add_argument("--resolution", type=int)
    bench.add_argument("--max-window", type=int)

    plot = add("plot", "write an SVG overlay of raw and smoothed")
    plot.add_argument("--input", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--resolution", type=int)
    plot.add_argument("--strategy", choices=STRATEGIES)
    plot.add_argument("--max-window", type=int)

    return parser


def _drain_stdout() -> None:
    """Point stdout at /dev/null so interpreter-shutdown flushing cannot
    trip over the same closed pipe."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):
        pass  # stdout is not a real file descriptor (tests); nothing to drain


def main(argv=None) -> int:
    parser = _build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    problem = cfg.validate()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[cfg.command](cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        _drain_stdout()
        return EXIT_OK  # downstream closed the pipe on purpose (e.g. head)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
