"""CSV ingestion and emission.

Accepted input: optional header row, then either `timestamp,value` rows or a
single value column (timestamps become 0, 1, 2, ...). Timestamps are integer
epoch milliseconds or ISO-8601 datetimes; the format is detected once per
file from the first data row. Naive ISO datetimes are read as UTC.
"""
from __future__ import annotations

from datetime import datetime, timezone
from itertools import chain
from math import isfinite
from typing import Iterable, Iterator, TextIO

import numpy as np

from .series import Series


# How every input source is decoded: a byte that is not UTF-8 becomes a lone
# surrogate, so its row fails to parse with a line number instead of ending
# the read.
DECODING = {"encoding": "utf-8", "errors": "surrogateescape"}


class ParseError(ValueError):
    """Bad input data; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_iso_ms(text: str) -> int:
    # int() and float() ignore surrounding whitespace; fromisoformat does not.
    text = text.strip()
    cleaned = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return round(dt.timestamp() * 1000)


def _detect_mode(parts: list[str]) -> tuple[str, bool] | None:
    """(columns, iso) for the first data row, or None if it looks like a header."""
    try:
        if len(parts) == 1:
            float(parts[0])
            return ("single", False)
        if len(parts) == 2:
            float(parts[1])
            try:
                int(parts[0])
                return ("double", False)
            except ValueError:
                _parse_iso_ms(parts[0])
                return ("double", True)
    except ValueError:
        return None
    return None


def iter_rows(lines: Iterable[str]) -> Iterator[tuple[int, int | None, float | str]]:
    """Yield (lineno, timestamp_ms, value) from CSV lines, skipping blanks,
    one leading header row and a leading byte-order mark. A row that does not
    parse yields (lineno, None, reason): the consumer stops or drops it."""
    lines = iter(lines)
    # str.strip keeps U+FEFF, which would turn the first data row into a header.
    first = next(lines, "").removeprefix("\ufeff")
    mode: tuple[str, bool] | None = None
    implied_ts = 0
    saw_header = False
    for lineno, raw in enumerate(chain((first,), lines), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if mode is None:
            mode = _detect_mode(parts)
            if mode is None:
                if saw_header:
                    yield lineno, None, f"cannot parse row {line!r}"
                saw_header = True  # the next unparseable row is an error
                continue
        columns, iso = mode
        try:
            if columns == "single":
                if len(parts) != 1:
                    raise ValueError("expected 1 column")
                t, v = implied_ts, float(parts[0])
                implied_ts += 1
            else:
                if len(parts) != 2:
                    raise ValueError("expected 2 columns")
                t = _parse_iso_ms(parts[0]) if iso else int(parts[0])
                v = float(parts[1])
        except ValueError as exc:
            yield lineno, None, f"cannot parse row {line!r}: {exc}"
            continue
        yield lineno, t, v


def read_series(source: str | TextIO) -> Series:
    """Parse a whole CSV file (path or open text stream) into a Series."""
    if isinstance(source, str):
        with open(source, **DECODING) as fh:
            return read_series(fh)
    timestamps: list[int] = []
    values: list[float] = []
    last = -(2**63)
    for lineno, t, v in iter_rows(source):
        if t is None:
            raise ParseError(lineno, v)
        # Checked here rather than in iter_rows, which `asap stream` reads: a
        # stream drops such a row with a warning and goes on.
        if not isfinite(v):
            raise ParseError(lineno, f"non-finite value {v!r}")
        if not last <= t < 2**63:
            if -(2**63) <= t < 2**63:
                raise ParseError(lineno, f"out-of-order point: {t} after {last}")
            raise ParseError(lineno, f"timestamp {t} outside the int64 range")
        last = t
        timestamps.append(t)
        values.append(v)
    if not values:
        raise ParseError(0, "no data rows")
    return Series(np.array(timestamps, dtype=np.int64), np.array(values))


def write_series(series: Series, stream: TextIO) -> None:
    """Emit `timestamp,value` rows with a header; floats via repr so identical
    input produces byte-identical output."""
    stream.write("timestamp,value\n")
    for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
        stream.write(f"{t},{v!r}\n")
