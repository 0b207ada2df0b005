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
from .preagg import PixelPlan, preaggregate
from .search import (
    STRATEGIES,
    SearchConfig,
    SmoothResult,
    binary_only_search,
    exhaustive_search,
    find_window,
    grid_search,
)
from .series import Series
from .stream import StreamState
from .svg import render_overlay

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2


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
        if self.strategy not in STRATEGIES:
            return f"unknown strategy {self.strategy!r}"
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


def _search(aggregated: Series, strategy: str, max_window: int | None) -> SmoothResult:
    if strategy == "asap":
        mw = max_window if max_window is not None else max(1, len(aggregated) // 10)
        return find_window(aggregated, SearchConfig(max_window=mw))
    if strategy == "exhaustive":
        return exhaustive_search(aggregated, max_window)
    if strategy == "grid2":
        return grid_search(aggregated, 2, max_window)
    if strategy == "grid10":
        return grid_search(aggregated, 10, max_window)
    if strategy == "binary":
        return binary_only_search(aggregated, max_window)
    raise ValueError(f"unknown strategy {strategy!r}")


def _finite_or_none(value: float) -> float | None:
    return None if math.isnan(value) else value


def _kurtosis_or_none(values) -> float | None:
    try:
        return kurtosis(values)
    except ValueError:
        return None


def cmd_smooth(cfg: RunConfig) -> int:
    series = _load_series(cfg)
    if cfg.zscore:
        series = zscore(series)
    started = time.perf_counter()
    plan = PixelPlan.plan(len(series), cfg.resolution)
    aggregated = preaggregate(series, plan.ratio)
    result = _search(aggregated, cfg.strategy, cfg.max_window)
    elapsed = time.perf_counter() - started
    meta = {
        "window": result.window,
        "raw_len": len(series),
        "aggregated_len": len(aggregated),
        "ratio": plan.ratio,
        "roughness": result.roughness,
        "kurtosis_before": _kurtosis_or_none(aggregated.values),
        "kurtosis_after": _finite_or_none(result.kurtosis),
        "candidates_evaluated": result.candidates_evaluated,
        "elapsed_seconds": elapsed,
        "strategy": result.strategy,
    }
    rendered = json.dumps(meta, sort_keys=True)
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
    config = SearchConfig(max_window=cfg.max_window) if cfg.max_window else None
    state = StreamState(
        pane_span=ratio,
        capacity=cfg.resolution,
        refresh_interval=cfg.refresh_interval,
        config=config,
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
                "roughness": result.roughness,
                "kurtosis": _finite_or_none(result.kurtosis),
                "points_consumed": consumed,
            }
            print(json.dumps(record, sort_keys=True))
    elapsed = time.perf_counter() - started
    rate = consumed / elapsed if elapsed > 0 else float(consumed)
    print(f"throughput: {rate:.1f} points/s ({consumed} points, {refreshes} refreshes)", file=sys.stderr)
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.gen:
        series = GENERATORS[cfg.gen](cfg.gen_points, cfg.seed)
    else:
        series = _load_series(cfg)
    plan = PixelPlan.plan(len(series), cfg.resolution)
    aggregated = preaggregate(series, plan.ratio)
    runs: list[tuple[SmoothResult, float]] = []
    for strategy in STRATEGIES:
        started = time.perf_counter()
        result = _search(aggregated, strategy, cfg.max_window)
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
    plan = PixelPlan.plan(len(series), cfg.resolution)
    aggregated = preaggregate(series, plan.ratio)
    result = _search(aggregated, cfg.strategy, cfg.max_window)
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

    smooth = sub.add_parser("smooth", help="smooth a CSV file and emit the result as CSV")
    smooth.add_argument("--input", required=True, help="CSV file: [timestamp,]value")
    smooth.add_argument("--resolution", type=int, default=800, help="target pixel width")
    smooth.add_argument("--max-window", type=int, default=None, dest="max_window")
    smooth.add_argument("--strategy", choices=STRATEGIES, default="asap")
    smooth.add_argument("--zscore", action="store_true", help="normalize values first")
    smooth.add_argument("--meta", default=None, help="write the JSON diagnostics here instead of stderr")

    stream = sub.add_parser("stream", help="replay rows through the streaming refresher")
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None)
    source.add_argument("--stdin", action="store_true")
    stream.add_argument("--refresh", type=int, required=True, dest="refresh",
                        help="panes between searches")
    stream.add_argument("--resolution", type=int, default=800, help="pane capacity")
    stream.add_argument("--ratio", type=int, default=None, help="points per pane")
    stream.add_argument("--max-window", type=int, default=None, dest="max_window")
    stream.add_argument("--strict", action="store_true", help="abort on out-of-order or non-finite rows")

    bench = sub.add_parser("bench", help="compare every strategy on one input")
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None)
    source.add_argument("--gen", choices=sorted(GENERATORS), default=None)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--gen-points", type=int, default=10000, dest="gen_points")
    bench.add_argument("--resolution", type=int, default=800)
    bench.add_argument("--max-window", type=int, default=None, dest="max_window")

    plot = sub.add_parser("plot", help="write an SVG overlay of raw and smoothed")
    plot.add_argument("--input", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--resolution", type=int, default=800)
    plot.add_argument("--strategy", choices=STRATEGIES, default="asap")
    plot.add_argument("--max-window", type=int, default=None, dest="max_window")

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
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        use_stdin=getattr(args, "stdin", False),
        out=getattr(args, "out", None),
        meta=getattr(args, "meta", None),
        resolution=getattr(args, "resolution", 800),
        max_window=getattr(args, "max_window", None),
        strategy=getattr(args, "strategy", "asap"),
        refresh_interval=getattr(args, "refresh", 1),
        ratio=getattr(args, "ratio", None),
        zscore=getattr(args, "zscore", False),
        strict=getattr(args, "strict", False),
        gen=getattr(args, "gen", None),
        gen_points=getattr(args, "gen_points", 10000),
        seed=getattr(args, "seed", 0),
    )
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
