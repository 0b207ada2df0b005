"""CSV ingestion and emission.

Accepted input: optional header row, then either `timestamp,value` rows or a
single value column (timestamps become 0, 1, 2, ...). Timestamps are integer
epoch milliseconds or ISO-8601 datetimes; the format is detected once per
file from the first data row. Naive ISO datetimes are read as UTC.

`iter_rows` is the definition of that format and words every error.
`read_series` first hands a plain file (see `_load_plain`) to numpy's C
loader and keeps its arrays only when they are what `iter_rows` would give;
anything else goes through `iter_rows`.
"""
from __future__ import annotations

import warnings
from datetime import datetime, timedelta, timezone
from itertools import chain
from math import isfinite
from typing import Iterable, Iterator, TextIO

import numpy as np

from .series import Series


# How every input source is decoded: a byte that is not UTF-8 becomes a lone
# surrogate, so its row fails to parse with a line number instead of ending
# the read.
DECODING = {"encoding": "utf-8", "errors": "surrogateescape"}

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)

# numpy dtype for each first-row mode `_load_plain` takes; ISO takes none.
PLAIN_DTYPES = {
    ("double", False): [("t", np.int64), ("v", np.float64)],
    ("single", False): np.float64,
}

# The plain ISO-8601 timestamp `_load_plain` also takes: this ("d" marks an
# ASCII digit), then optionally "." and 1-9 digits, then one of the suffixes.
ISO_DATE_TIME = b"dddd-dd-ddTdd:dd:dd"
ISO_SUFFIXES = (b"+00:00", b"Z", b"z", b"")
# One byte wider than the longest plain timestamp (35): numpy cuts a longer
# field to 36 bytes, which then fails the shape check instead of passing.
ISO_DTYPE = [("t", "S36"), ("v", np.float64)]
# Days in each month of a common year, by month number.
MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class ParseError(ValueError):
    """Bad input data; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_iso_ms(text: str) -> int:
    # int() and float() ignore surrounding whitespace; fromisoformat does not.
    text = text.strip()
    # fromisoformat stops at a NUL on some Pythons (3.11 on), so refuse it
    # here for the same answer on every version.
    if "\x00" in text:
        raise ValueError("NUL in timestamp")
    cleaned = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        dt = datetime.fromisoformat(cleaned)
    except ValueError as error:
        # Python 3.10 takes a fraction of 3 or 6 digits only: retry with 6.
        head, _, tail = cleaned.partition(".")
        rest = tail.lstrip("0123456789")
        if rest == tail:
            raise
        try:
            dt = datetime.fromisoformat(f"{head}.{(tail[: len(tail) - len(rest)] + '00000')[:6]}{rest}")
        except ValueError:
            raise error from None
    # fromisoformat keeps 6 fraction digits. Later ones count in the rounding
    # if they are the time's: an offset, which may have a fraction, follows it.
    beyond = False
    dot = cleaned.find(".")
    if dot > 0 and cleaned[dot + 7 : dot + 8].isdigit():
        tail = cleaned[dot + 1 :]
        rest = tail.lstrip("0123456789")
        beyond = tail[6 : len(tail) - len(rest)].strip("0") and (rest or dt.tzinfo is None)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # Integer microseconds: dt.timestamp() * 1000 rounds through a float and
    # is off by one for some sub-millisecond times far from 1970.
    ms, us = divmod((dt - EPOCH) // MICROSECOND, 1000)
    # Half to even, as round() does; digits past the microsecond break a tie
    # upward. `ms` itself when not rounding up: `ms + 0` would allocate a
    # larger int per row (+4 MB on 250k ISO rows).
    return ms + 1 if us > 500 or (us == 500 and (beyond or ms % 2)) else ms


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


def count_rows(lines: Iterable[str]) -> int:
    """len(list(iter_rows(lines))), without parsing past the first row:
    from its first row on, iter_rows yields one row per non-blank line."""
    lines = iter(lines)
    if next(iter_rows(lines), None) is None:
        return 0
    return 1 + sum(1 for line in lines if line.strip())


def _load_plain(fh: TextIO) -> Series | None:
    """The file from the current position through one `np.loadtxt` call, or
    None to leave it to the line parser.

    Taken only for a plain shape: no byte-order mark, at most one line before
    the first data row (a header, which `_detect_mode` rejects), and a first
    data row of integer-ms, value-only or ISO form. The result is kept only
    when numpy raises nothing, warns nothing (numpy 1.x only warns when it
    truncates `5.0` into an int column), an ISO file passes `_iso_series`, and
    `Series` accepts it; `Series` checks the values finite and the timestamps
    in order. On every such file `iter_rows` reads the same rows
    (tests/test_io.py checks this)."""
    for _ in range(2):
        start = fh.tell()
        line = fh.readline()
        if line.startswith("\ufeff"):
            return None
        mode = _detect_mode(line.strip().split(","))
        if mode is not None:
            break
    dtype = ISO_DTYPE if mode == ("double", True) else PLAIN_DTYPES.get(mode)
    if dtype is None:
        return None
    fh.seek(start)  # the table holds the data row just read, so it is never empty
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        if mode[0] == "single":
            return Series(np.arange(table.size, dtype=np.int64), table)
        if mode[1]:
            return _iso_series(table, fh, start)
        return Series(table["t"], table["v"])
    except (ValueError, OverflowError, Warning):
        return None


def _iso_series(table: np.ndarray, fh: TextIO, start: int) -> Series | None:
    """`table` (`ISO_DTYPE` rows) as a Series, or None unless every timestamp
    has the first row's plain ISO shape and is a date and time that
    `_parse_iso_ms` takes, and `fh` holds no NUL from `start` on.

    Epoch milliseconds come from integer arithmetic on the digit bytes, with
    the fraction rounded half to even as `_parse_iso_ms` rounds it."""
    first = table["t"][0]
    suffix = next(s for s in ISO_SUFFIXES if first.endswith(s))
    places = len(first) - len(suffix) - len(ISO_DATE_TIME) - 1
    shape = ISO_DATE_TIME + (b"." + b"d" * places if 0 < places <= 9 else b"") + suffix
    if len(shape) != len(first):
        return None
    pattern = np.frombuffer(shape, np.uint8)
    digit = pattern == ord("d")
    raw = table.view(np.uint8).reshape(table.size, -1)
    # Each column's byte range, checked through its least and greatest byte
    # so that no array as large as the table is made.
    columns = raw[:, : pattern.size]
    if (
        raw[:, pattern.size].any()  # a longer field
        or (columns.min(axis=0) < np.where(digit, ord("0"), pattern)).any()
        or (columns.max(axis=0) > np.where(digit, ord("9"), pattern)).any()
    ):
        return None

    def number(begin: int, end: int) -> np.ndarray:
        value = np.zeros(table.size, np.int32)  # 9 digits at most: below 2**31
        for column in range(begin, end):
            value = value * 10 + (raw[:, column] - ord("0"))
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_end = np.take(MONTH_DAYS, month, mode="clip") + (leap & (month == 2))
    if (
        (year < 1) | (month < 1) | (month > 12) | (day < 1) | (day > month_end)
        | (hour > 23) | (minute > 59) | (second > 59)
    ).any():
        return None
    # Days since 0000-03-01 by Howard Hinnant's days_from_civil: counted from
    # March, a year ends with its leap day, and 400 years hold 146 097 days.
    # 1970-01-01 is day 719 468.
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    ms = ((((days.astype(np.int64) - 719_468) * 24 + hour) * 60 + minute) * 60 + second) * 1000
    if places > 0:
        # Whole seconds are an even count of ms, so a tie rounds up to even
        # exactly when `whole` is odd.
        whole, rest = np.divmod(number(20, 20 + places) * 10 ** (9 - places), 1_000_000)
        ms += whole + ((rest > 500_000) | ((rest == 500_000) & (whole % 2 == 1)))
    series = Series(ms, table["v"])
    # numpy drops trailing NULs from a field: leave any NUL to the line parser.
    fh.seek(start)
    for chunk in iter(lambda: fh.read(1 << 20), ""):
        if "\x00" in chunk:
            return None
    return series


def read_series(source: str | TextIO) -> Series:
    """Parse a whole CSV file (path or open text stream) into a Series."""
    if isinstance(source, str):
        with open(source, **DECODING) as fh:
            return read_series(fh)
    if source.seekable():
        start = source.tell()
        series = _load_plain(source)
        if series is not None:
            return series
        source.seek(start)
    return _parse_lines(source)


def _parse_lines(source: Iterable[str]) -> Series:
    """The line parser: every row through `iter_rows`, with its line-numbered
    errors."""
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
