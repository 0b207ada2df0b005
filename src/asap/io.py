"""CSV ingestion and emission.

Accepted input: optional header row, then either `timestamp,value` rows or a
single value column (timestamps become 0, 1, 2, ...). Timestamps are integer
epoch milliseconds or the ISO-8601 stamps `ISO_STAMP` defines; the format is
detected once per file from the first data row.

`iter_rows` is the definition of that format and words every error.
`read_series` first hands a plain file (see `_load_plain`) to numpy's C
loader and keeps its arrays only when they are what `iter_rows` would give;
anything else goes through `iter_rows`. numpy reads a file named by a path
in blocks and an open stream line by line, so a path reaches it as a path
unless the file is a pipe or FIFO (read once, by `iter_rows`), or its name
ends in a suffix numpy would decompress by or its header is not UTF-8 (read
as a stream). Both parsers read ISO stamps by `ISO_STAMP` and `_epoch_ms`.
"""
from __future__ import annotations

import os
import re
import warnings
from contextlib import nullcontext
from functools import lru_cache
from itertools import chain
from math import isfinite
from typing import Iterable, Iterator, TextIO

import numpy as np

from .series import Series, point_error


# How every input source is decoded: a byte that is not UTF-8 becomes a lone
# surrogate, so its row fails to parse with a line number instead of ending
# the read.
DECODING = {"encoding": "utf-8", "errors": "surrogateescape"}

# numpy dtype for each first-row mode `_load_plain` takes. An ISO field is one
# byte wider than the longest stamp (35): numpy cuts a longer field to 36
# bytes, which then fails `_iso_series`'s shape check instead of passing.
PLAIN_DTYPES = {
    ("double", False): [("t", np.int64), ("v", np.float64)],
    ("double", True): [("t", "S36"), ("v", np.float64)],
    ("single", False): np.float64,
}

# The file name suffixes by which np.loadtxt decompresses a path it is given
# (numpy.lib._datasource, which matches them case-sensitively): a file so
# named goes to numpy as an open stream, read as the text it holds.
COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# The characters str.strip takes for whitespace where int() and float() do
# not: text beside a number or a stamp that holds one does not parse.
SEPARATORS = "\x1c\x1d\x1e\x1f"

# The ISO-8601 timestamps: a date, optionally followed by `T`, `t` or a space
# and a time whose fraction has 1-9 digits, then optionally `Z`, `z` or a
# `+HH[:MM]` / `-HH[:MM]` offset. A stamp with no offset is UTC.
ISO_STAMP = re.compile(
    r"(?P<year>\d{4})-(?P<month>\d\d)-(?P<day>\d\d)"
    r"(?:[Tt ](?P<hour>\d\d):(?P<minute>\d\d)(?::(?P<second>\d\d)(?:\.(?P<fraction>\d{1,9}))?)?"
    r"(?:[Zz]|(?P<sign>[+-])(?P<offset_hour>\d\d)(?::(?P<offset_minute>\d\d))?)?)?",
    re.ASCII,
)


class ParseError(ValueError):
    """Bad input data; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _days(year, month, day):
    """Days from 1970-01-01 to a proleptic Gregorian date, by Howard Hinnant's
    days_from_civil: counted from March, a year ends with its leap day, and
    400 years hold 146 097 days. Month 13 is the next year's January."""
    before_march = month <= 2
    era, year_of_era = divmod(year - before_march, 400)
    day_of_year = (153 * (month - 3 + 12 * before_march) + 2) // 5 + day - 1
    return era * 146_097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year - 719_468


def _epoch_ms(year, month, day, hour, minute, second, nanosecond, sign, offset_hour, offset_minute):
    """(milliseconds since 1970-01-01T00:00:00Z, whether a field is out of
    range) of `ISO_STAMP`'s fields as Python ints or numpy int arrays, absent
    ones 0, the fraction in ns and `sign` +1 or -1. Only the fraction rounds
    (half to even); all else adds an even count, so parts of a stamp add up."""
    days = _days(year, month, day)
    bad = (
        (year < 1) | (month < 1) | (month > 12) | (day < 1) | (days >= _days(year, month + 1, 1))
        | (hour > 23) | (minute > 59) | (second > 59) | (offset_hour > 23) | (offset_minute > 59)
    )
    minutes = (days * 24 + hour - sign * offset_hour) * 60 + minute - sign * offset_minute
    return _fraction_ms(nanosecond) + (minutes * 60 + second) * 1000, bad


def _fraction_ms(nanosecond):
    """A fraction of a second in ns, rounded half to even to whole ms."""
    ms, rest = divmod(nanosecond, 1_000_000)
    return ms + (rest + ms % 2 > 500_000)


@lru_cache(maxsize=4096)
def _stamp_ms(text: str) -> int:
    """`_epoch_ms` of a stamp, or ValueError."""
    match = ISO_STAMP.fullmatch(text)
    if match is None:
        raise ValueError("not of the form YYYY-MM-DD[THH:MM[:SS[.F]][Z|+HH[:MM]|-HH[:MM]]]")
    year, month, day, hour, minute, second, fraction, sign, offset_hour, offset_minute = match.groups("0")
    ms, bad = _epoch_ms(
        int(year), int(month), int(day), int(hour), int(minute), int(second), int(fraction.ljust(9, "0")),
        -1 if sign == "-" else 1, int(offset_hour), int(offset_minute),
    )
    if bad:
        raise ValueError("date or time out of range")
    return ms


def _parse_iso_ms(text: str) -> int:
    # int() and float() ignore surrounding whitespace, so this does too; but
    # they refuse U+001C-U+001F, which str.strip takes for whitespace, and the
    # pattern refuses them inside a stamp.
    stripped = text.strip()
    if len(stripped) != len(text) and any(c in text for c in SEPARATORS):
        raise ValueError("U+001C-U+001F beside a timestamp")
    text = stripped
    # The date and minute (16 characters, or a date) and the rest after the
    # epoch's minute, split after the seconds if there is a fraction, are
    # stamps exactly when the text is one, and sum to its milliseconds; a
    # file's rows share most such parts, which `_stamp_ms` caches.
    head, rest, epoch = text[:16], text[16:], "1970-01-01T00:00"
    if rest.startswith(":") and "." in rest:
        return _stamp_ms(head) + _stamp_ms(epoch + rest[:3]) + _fraction_and_zone_ms(rest[3:])
    return _stamp_ms(head) + _stamp_ms(epoch + rest)


@lru_cache(maxsize=4096)
def _fraction_and_zone_ms(tail: str) -> int:
    """`_stamp_ms` of `1970-01-01T00:00:00` and `tail`, what follows a
    stamp's seconds. A fraction of 1-9 ASCII digits is converted here and
    the zone after it read as a stamp of its own: stamps whose digits
    change from row to row miss this cache on every row, and a miss costs
    well under a whole-stamp parse."""
    zone = tail[1:].lstrip("0123456789")
    digits = tail[1 : len(tail) - len(zone)]
    if tail.startswith(".") and 1 <= len(digits) <= 9:
        return _stamp_ms("1970-01-01T00:00:00.0" + zone) + _fraction_ms(int(digits.ljust(9, "0")))
    return _stamp_ms("1970-01-01T00:00:00" + tail)


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


def _load_plain(fh: TextIO, path: str | None) -> Series | None:
    """The file from the current position through one `np.loadtxt` call, or
    None to leave it to the line parser. `fh` is seekable; `path` is the name
    it was opened by, or None for a stream the caller opened.

    Taken only for a plain shape: no byte-order mark, at most one line before
    the first data row (a header, which `_detect_mode` rejects), and a first
    data row of integer-ms, value-only or ISO form. numpy gets `path`, which
    it opens and reads in blocks, unless the name ends in a suffix it would
    decompress by (`COMPRESSED`) or the header is not UTF-8; otherwise it
    gets `fh`, which it iterates one Python string per line. Kept only when
    numpy raises and warns nothing (numpy 1.x warns when it truncates `5.0`
    into an int; numpy decodes a path as strict UTF-8), `_iso_series` takes
    an ISO file, `Series` accepts the arrays and the text numpy read holds no
    NUL or U+001C-U+001F: then `iter_rows` reads the same rows."""
    header = ""
    for skip in range(2):
        start = fh.tell()
        line = fh.readline()
        if line.startswith("\ufeff"):
            return None
        mode = _detect_mode(line.strip().split(","))
        if mode is not None:
            break
        header = line
    if mode not in PLAIN_DTYPES:
        return None
    # numpy decodes the header it skips as strict UTF-8, so a header holding
    # a byte `DECODING` escaped (a cp1252 export's, say) would fail it; and it
    # reads a `scheme://host/...` string as a URL, which an absolute path
    # never is. A relative one is joined to the working directory, not
    # normalised: `link/../x` names what the kernel finds through the link.
    utf8_header = not any("\udc80" <= c <= "\udcff" for c in header)
    if path is not None and not path.endswith(COMPRESSED) and utf8_header:
        source = path if os.path.isabs(path) else os.path.join(os.getcwd(), path)
        start = 0
    else:
        source, skip = fh, 0
        fh.seek(start)  # the table holds the data row just read, so it is never empty
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                source, dtype=PLAIN_DTYPES[mode], delimiter=",", comments=None, skiprows=skip, encoding="utf-8",
                ndmin=1,
            )
        if mode[0] == "single":
            series = Series.from_values(table)
        else:
            series = _iso_series(table) if mode[1] else Series(table["t"], table["v"])
    except (ValueError, OverflowError, OSError, Warning):
        return None
    # np.loadtxt drops trailing NULs from a bytes field and strips U+001C-U+001F
    # around a number, where int() and float() refuse them.
    fh.seek(start)
    for chunk in iter(lambda: fh.read(1 << 20), ""):
        if any(c in chunk for c in "\x00" + SEPARATORS):
            return None
    return series


def _iso_series(table: np.ndarray) -> Series:
    """`table` (ISO `PLAIN_DTYPES` rows) as a Series, or ValueError unless
    every stamp has the first's byte shape (digits where the first has
    `ISO_STAMP` fields, its other bytes elsewhere) and is in range."""
    first = table["t"][0]
    match = ISO_STAMP.fullmatch(first.decode("latin-1"))
    if match is None:
        raise ValueError("not a stamp")
    # The stamps' bytes column by column, one past the first's end, where a
    # longer stamp shows: each column is contiguous, and a byte's range is
    # checked through its column's least and greatest byte.
    columns = np.ascontiguousarray(table.view(np.uint8).reshape(table.size, -1)[:, : len(first) + 1].T)
    pattern = np.frombuffer(first + b"\0", np.uint8)
    digit = (pattern >= ord("0")) & (pattern <= ord("9"))  # the fields': the pattern has no other digit
    low, high = np.where(digit, ord("0"), pattern), np.where(digit, ord("9"), pattern)
    if (columns.min(axis=1) < low).any() or (columns.max(axis=1) > high).any():
        raise ValueError("a stamp of another shape")

    def field(name: str) -> np.ndarray | int:
        begin, end = match.span(name)  # (-1, -1) when absent: the field stays 0
        # int32 holds 9 digits; the year is int64, and so is every sum after it.
        value = np.zeros(table.size, np.int64 if name == "year" else np.int32) if begin >= 0 else 0
        for column in columns[begin:end]:
            value = value * 10 + (column - ord("0"))
        return value

    ms, bad = _epoch_ms(
        *(field(name) for name in ("year", "month", "day", "hour", "minute", "second")),
        field("fraction") * 10 ** (9 - len(match["fraction"] or "")), -1 if match["sign"] == "-" else 1,
        field("offset_hour"), field("offset_minute"),
    )
    if bad.any():
        raise ValueError("date or time out of range")
    return Series(ms, table["v"])


def read_series(source: str | TextIO) -> Series:
    """Parse a whole CSV file (path or open text stream) into a Series."""
    path = source if isinstance(source, str) else None
    with open(path, **DECODING) if path is not None else nullcontext(source) as fh:
        # A pipe or FIFO is read once, by the line parser.
        if fh.seekable():
            start = fh.tell()
            series = _load_plain(fh, path)
            if series is not None:
                return series
            fh.seek(start)
        return _parse_lines(fh)


def _parse_lines(source: Iterable[str]) -> Series:
    """The line parser: every row through `iter_rows`, with its line-numbered
    errors."""
    timestamps: list[int] = []
    values: list[float] = []
    last = -(2**63)
    for lineno, t, v in iter_rows(source):
        if t is None:
            raise ParseError(lineno, v)
        # Checked here by point_error, not in iter_rows, which `asap stream`
        # reads: StreamState.ingest refuses the same rows in the same words,
        # and a stream drops such a row with a warning and goes on.
        if not (isfinite(v) and last <= t < 2**63):
            raise ParseError(lineno, point_error(last, t, v))
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
