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
from typing import Iterable

from .generators import GENERATORS
from .io import DECODING, ParseError, count_rows, iter_rows, read_series, write_series
from .metrics import kurtosis, zscore
from .preagg import point_to_pixel_ratio, preaggregate
from .search import MIN_POINTS, binary_only_search, exhaustive_search, find_window, grid_search
from .series import Series
from .stream import StreamState
from .svg import render_overlay

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2  # argparse's own status for a bad flag or value

# Strategy name -> search over the preaggregated series under --max-window
# (None: the default cap). The asap entry looks find_window up when called.
STRATEGIES = {
    "asap": lambda s, mw: find_window(s, max_window=mw),
    "exhaustive": exhaustive_search,
    "grid2": lambda s, mw: grid_search(s, 2, mw),
    "grid10": lambda s, mw: grid_search(s, 10, mw),
    "binary": binary_only_search,
}


def _at_least(n: int):
    """argparse type: an int no smaller than n, so a value out of bounds
    takes argparse's exit-2 path like every other bad flag."""
    def at_least(text: str) -> int:
        value = int(text)
        if value < n:
            raise argparse.ArgumentTypeError(f"must be >= {n}")
        return value
    at_least.__name__ = "int"  # argparse names it: "invalid int value: 'x'"
    return at_least


def _json_number(value: float) -> float | None:
    """value, or None (JSON null) for NaN and the infinities, which JSON
    cannot represent."""
    return value if math.isfinite(value) else None


def _zscore(series: Series) -> Series:
    """series z-scored, or as it is when zscore refuses it for having no
    spread: a constant series keeps window 1 either way."""
    try:
        return zscore(series)
    except ValueError:
        return series


def cmd_smooth(args: argparse.Namespace) -> int:
    series = read_series(args.input)
    if args.zscore:
        series = _zscore(series)
    started = time.perf_counter()
    ratio = point_to_pixel_ratio(len(series), args.resolution)
    aggregated = preaggregate(series, ratio)
    result = STRATEGIES[args.strategy](aggregated, args.max_window)
    elapsed = time.perf_counter() - started
    meta = {
        "window": result.window,
        "raw_len": len(series),
        "aggregated_len": len(aggregated),
        "ratio": ratio,
        "roughness": _json_number(result.roughness),
        "kurtosis_before": _json_number(kurtosis(aggregated.values)),
        "kurtosis_after": _json_number(result.kurtosis),
        "candidates_evaluated": result.candidates_evaluated,
        "elapsed_seconds": elapsed,
        "strategy": args.strategy,
    }
    rendered = json.dumps(meta, sort_keys=True, allow_nan=False)
    # Diagnostics first: they must land even if whoever reads stdout hangs up
    # partway through the CSV.
    if args.meta:
        with open(args.meta, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered, file=sys.stderr)
    write_series(result.smoothed, sys.stdout)
    return EXIT_OK


def cmd_stream(args: argparse.Namespace) -> int:
    if args.stdin:
        if hasattr(sys.stdin, "reconfigure"):  # an io.StringIO is text already
            sys.stdin.reconfigure(**DECODING)
        return _replay(iter_rows(sys.stdin), args.ratio or 1, args)
    with open(args.input, **DECODING) as fh:
        if args.ratio is not None:
            return _replay(iter_rows(fh), args.ratio, args)
        # Two passes, so memory stays O(capacity): count the rows, then stream them.
        if not fh.seekable():
            print(
                f"error: cannot count the rows of {args.input}, which is not seekable (a pipe?); "
                "give --ratio, or feed it to --stdin, where --ratio defaults to 1",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        ratio = max(1, count_rows(fh) // args.resolution)
        fh.seek(0)
        return _replay(iter_rows(fh), ratio, args)


def _replay(
    rows: Iterable[tuple[int, int | None, float | str]], ratio: int, args: argparse.Namespace
) -> int:
    """Feed rows through a StreamState, printing one JSON line per refresh."""
    state = StreamState(
        pane_span=ratio,
        capacity=args.resolution,
        refresh_interval=args.refresh,
        max_window=args.max_window,
    )
    consumed = 0
    refreshes = 0
    started = time.perf_counter()
    for lineno, t, v in rows:
        try:
            if t is None:
                raise ValueError(v)  # a row iter_rows could not parse
            state.ingest(t, v)
        except ValueError as exc:
            if args.strict:
                raise ParseError(lineno, str(exc)) from exc
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


def cmd_bench(args: argparse.Namespace) -> int:
    if args.gen:
        series = GENERATORS[args.gen](args.gen_points, args.seed)
    else:
        series = read_series(args.input)
    aggregated = preaggregate(series, point_to_pixel_ratio(len(series), args.resolution))
    runs = {}
    for name, search in STRATEGIES.items():
        started = time.perf_counter()
        result = search(aggregated, args.max_window)
        runs[name] = (result, time.perf_counter() - started)
    baseline = runs["exhaustive"][0].roughness
    print(f"{'strategy':<12}{'window':>8}{'roughness':>14}{'vs_exhaustive':>15}{'candidates':>12}{'ms':>10}")
    for name, (result, seconds) in runs.items():
        if baseline > 0:
            rel = result.roughness / baseline
        else:
            rel = 1.0 if result.roughness == baseline else math.inf
        print(
            f"{name:<12}{result.window:>8}{result.roughness:>14.6g}"
            f"{rel:>15.4f}{result.candidates_evaluated:>12}{seconds * 1000:>10.2f}"
        )
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    series = _zscore(read_series(args.input))
    aggregated = preaggregate(series, point_to_pixel_ratio(len(series), args.resolution))
    result = STRATEGIES[args.strategy](aggregated, args.max_window)
    document = render_overlay(aggregated, result.smoothed, width=args.resolution)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asap",
        description="Smooth time series for plotting by picking the moving-average "
        "window automatically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Fewer than MIN_POINTS pixels leaves too few preaggregated points to search.
    resolution = {"type": _at_least(MIN_POINTS), "default": 800}
    max_window = {"type": _at_least(1)}

    smooth = sub.add_parser("smooth", help="smooth a CSV file and emit the result as CSV")
    smooth.set_defaults(handler=cmd_smooth)
    smooth.add_argument("--input", required=True, help="CSV file: [timestamp,]value")
    smooth.add_argument("--resolution", **resolution, help="target pixel width")
    smooth.add_argument("--max-window", **max_window)
    smooth.add_argument("--strategy", choices=STRATEGIES, default="asap")
    smooth.add_argument("--zscore", action="store_true", help="normalize values first")
    smooth.add_argument("--meta", help="write the JSON diagnostics here instead of stderr")

    stream = sub.add_parser("stream", help="replay rows through the streaming refresher")
    stream.set_defaults(handler=cmd_stream)
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument("--input")
    source.add_argument("--stdin", action="store_true")
    stream.add_argument("--refresh", type=_at_least(1), required=True, help="panes between searches")
    stream.add_argument("--resolution", **resolution, help="pane capacity")
    stream.add_argument("--ratio", type=_at_least(1), help="points per pane")
    stream.add_argument("--max-window", **max_window)
    stream.add_argument("--strict", action="store_true", help="abort on a bad row instead of dropping it")

    bench = sub.add_parser("bench", help="compare every strategy on one input")
    bench.set_defaults(handler=cmd_bench)
    source = bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--input")
    source.add_argument("--gen", choices=sorted(GENERATORS))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--gen-points", type=_at_least(MIN_POINTS), default=10000)
    bench.add_argument("--resolution", **resolution)
    bench.add_argument("--max-window", **max_window)

    plot = sub.add_parser("plot", help="write an SVG overlay of raw and smoothed")
    plot.set_defaults(handler=cmd_plot)
    plot.add_argument("--input", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--resolution", **resolution)
    plot.add_argument("--strategy", choices=STRATEGIES, default="asap")
    plot.add_argument("--max-window", **max_window)

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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        _drain_stdout()
        return EXIT_OK  # downstream closed the pipe on purpose (e.g. head)
    except (OSError, ValueError) as exc:  # ValueError covers io.ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
