"""CSV reading and writing: formats, line numbers, round trips."""
import io
import os
import threading
from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asap.io
from asap.io import (
    COMPRESSED, DECODING, ParseError, _parse_iso_ms, _parse_lines, count_rows, iter_rows, read_series, write_series,
)
from asap.series import Series

EPOCH_2021_MS = 1_609_459_200_000  # 2021-01-01T00:00:00Z


def test_reads_two_column_epoch_ms():
    s = read_series(io.StringIO("1000,1.5\n2000,2.5\n3000,-1.0\n"))
    assert s.timestamps.tolist() == [1000, 2000, 3000]
    np.testing.assert_allclose(s.values, [1.5, 2.5, -1.0])


def test_reads_single_column_with_implied_timestamps():
    s = read_series(io.StringIO("5.0\n6.0\n7.0\n"))
    assert s.timestamps.tolist() == [0, 1, 2]


def test_reads_iso_timestamps_as_utc():
    s = read_series(io.StringIO("2021-01-01T00:00:00Z,1.0\n2021-01-01T00:00:01Z,2.0\n"))
    assert s.timestamps.tolist() == [EPOCH_2021_MS, EPOCH_2021_MS + 1000]

    naive = read_series(io.StringIO("2021-01-01T00:00:00,1.0\n2021-01-01T00:00:01,2.0\n"))
    assert naive.timestamps.tolist() == s.timestamps.tolist()


def test_header_row_is_skipped_once():
    s = read_series(io.StringIO("timestamp,value\n10,1.0\n20,2.0\n"))
    assert s.timestamps.tolist() == [10, 20]


def test_blank_lines_are_skipped():
    s = read_series(io.StringIO("10,1.0\n\n20,2.0\n\n"))
    assert len(s) == 2


def test_bad_row_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        read_series(io.StringIO("10,1.0\n20,2.0\n30,oops\n"))
    with pytest.raises(ParseError, match="line 3"):
        read_series(io.StringIO("10,1.0\n20,2.0\n30,1.0,extra\n"))


def test_timestamp_outside_int64_reports_line_number():
    with pytest.raises(ParseError, match="line 3: timestamp 99999999999999999999999 outside the int64 range"):
        read_series(io.StringIO("1,1.0\n2,2.0\n99999999999999999999999,4\n"))
    with pytest.raises(ParseError, match="line 2: timestamp -9223372036854775809 "):
        read_series(io.StringIO("1,1.0\n-9223372036854775809,2.0\n"))
    s = read_series(io.StringIO("-9223372036854775808,1.0\n9223372036854775807,2.0\n"))
    assert s.timestamps.tolist() == [-(2**63), 2**63 - 1]


@pytest.mark.parametrize("text", ["nan", "-inf", "1e999"])
def test_non_finite_value_reports_line_number(text):
    with pytest.raises(ParseError, match=r"line 3: non-finite value"):
        read_series(io.StringIO(f"timestamp,value\n1,1.0\n2,{text}\n3,3.0\n"))
    with pytest.raises(ParseError, match=r"line 2: non-finite value"):
        read_series(io.StringIO(f"1.0\n{text}\n3.0\n"))


def test_second_unparseable_row_is_an_error_not_a_header():
    with pytest.raises(ParseError, match="line 2"):
        read_series(io.StringIO("timestamp,value\nalso,not,data\n1,2.0\n"))


def test_empty_input_is_an_error():
    with pytest.raises(ParseError, match="no data rows"):
        read_series(io.StringIO(""))
    with pytest.raises(ParseError, match="no data rows"):
        read_series(io.StringIO("timestamp,value\n"))


def test_decreasing_timestamps_are_an_error():
    with pytest.raises(ParseError, match="line 2: out-of-order point: 10 after 20"):
        read_series(io.StringIO("20,1.0\n10,2.0\n"))


# (header, plain rows, the same rows with fields padded by spaces and tabs)
PADDED = [
    ("timestamp,value", "10,1.5\n20,-2.5\n30,3.0\n", " 10 , 1.5\n\t20,\t-2.5 \n30\t,  3.0\t\n"),
    ("value", "1.5\n-2.5\n3.0\n", " 1.5 \n\t-2.5\n3.0\t\n"),
    ("timestamp,value", "2021-01-01T00:00:00Z,1.0\n2021-01-01T00:00:01,2.0\n",
     " 2021-01-01T00:00:00Z ,\t1.0\n\t2021-01-01T00:00:01 , 2.0 \n"),
]


@pytest.mark.parametrize("header,plain,padded", PADDED)
@pytest.mark.parametrize("header_style", ["none", "plain", "padded"])
def test_padded_fields_parse_like_plain_ones(header, plain, padded, header_style):
    expected = read_series(io.StringIO(plain))
    prefix = {
        "none": "",
        "plain": header + "\n",
        "padded": " " + header.replace(",", " ,\t") + "\t\n",
    }[header_style]
    got = read_series(io.StringIO(prefix + padded))
    np.testing.assert_array_equal(got.timestamps, expected.timestamps)
    np.testing.assert_array_equal(got.values, expected.values)



@pytest.mark.parametrize("header,rows", [
    ("", "1,5.0\n2,1.0\n3,4.0\n4,2.0\n5,3.0\n"),
    ("timestamp,value\n", "1,5.0\n2,1.0\n3,4.0\n4,2.0\n5,3.0\n"),
    ("", "5.0\n1.0\n4.0\n2.0\n3.0\n"),
])
def test_leading_byte_order_mark_is_ignored(tmp_path, header, rows):
    # A UTF-8 byte-order mark must not turn the first data row into a header.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (header + rows).encode())
    got = read_series(str(path))
    expected = read_series(io.StringIO(header + rows))
    np.testing.assert_array_equal(got.timestamps, expected.timestamps)
    np.testing.assert_array_equal(got.values, expected.values)
    assert got.values.tolist() == [5.0, 1.0, 4.0, 2.0, 3.0]


def test_leading_byte_order_mark_on_an_open_stream_is_ignored():
    # What a piped stdin carries: the mark decoded to U+FEFF, no header.
    got = read_series(io.StringIO("\ufeff1,5.0\n2,1.0\n3,4.0\n4,2.0\n"))
    assert got.timestamps.tolist() == [1, 2, 3, 4]
    assert got.values.tolist() == [5.0, 1.0, 4.0, 2.0]


def test_extra_column_in_a_value_only_file_reports_line_number():
    with pytest.raises(ParseError) as info:
        read_series(io.StringIO("1.0\n2.0,3.0\n4.0\n"))
    assert str(info.value) == "line 2: cannot parse row '2.0,3.0': expected 1 column"


def test_iter_rows_hands_unparseable_rows_on():
    rows = list(iter_rows(["1,1.0\n", "abc,4\n", "3,2.0\n"]))
    assert rows[0] == (1, 1, 1.0) and rows[2] == (3, 3, 2.0)
    assert rows[1][:2] == (2, None) and rows[1][2].startswith("cannot parse row 'abc,4': ")


def test_iter_rows_yields_line_numbers():
    rows = list(iter_rows(["value\n", "1.5\n", "\n", "2.5\n"]))
    assert rows == [(2, 0, 1.5), (4, 1, 2.5)]


def test_write_read_round_trip_is_exact():
    rng = np.random.default_rng(17)
    s = Series(1_600_000_000_000 + 60_000 * np.arange(64), rng.normal(size=64) * 1e-3)
    buf = io.StringIO()
    write_series(s, buf)
    text = buf.getvalue()
    assert text.startswith("timestamp,value\n")

    back = read_series(io.StringIO(text))
    np.testing.assert_array_equal(back.timestamps, s.timestamps)
    np.testing.assert_array_equal(back.values, s.values)  # repr round-trips floats

    second = io.StringIO()
    write_series(back, second)
    assert second.getvalue() == text


# The accepted timestamps: a date, optionally followed by T, t or a space and
# HH:MM[:SS[.F]] (F: 1-9 digits) with an optional Z, z or +-HH[:MM] offset;
# no offset is UTC. Each row: (stamp, its epoch milliseconds).
ACCEPTED = [
    ("2024-03-05", 1_709_596_800_000),
    ("2024-03-05T12:34", 1_709_642_040_000),
    ("2024-03-05T12:34:56", 1_709_642_096_000),
    ("2024-03-05t12:34:56", 1_709_642_096_000),
    ("2024-03-05 12:34:56", 1_709_642_096_000),
    ("2024-03-05T12:34:56Z", 1_709_642_096_000),
    ("2024-03-05T12:34:56z", 1_709_642_096_000),
    ("2024-03-05T12:34Z", 1_709_642_040_000),
    ("2024-03-05T12:34:56+05:30", 1_709_622_296_000),
    ("2024-03-05T12:34:56-05:30", 1_709_661_896_000),
    ("2024-03-05T12:34:56+05", 1_709_624_096_000),
    ("2024-03-05 12:34-08", 1_709_670_840_000),
    ("2024-03-05T12:34:56-00:00", 1_709_642_096_000),
    ("2024-03-05T12:34:56+23:59", 1_709_555_756_000),
    ("2024-03-05T12:34:56.1Z", 1_709_642_096_100),
    ("2024-03-05T12:34:56.123456789+01:00", 1_709_638_496_123),
    # Half a millisecond rounds to even; any digit past it rounds up.
    ("2021-01-01T00:00:00.0005Z", 1_609_459_200_000),
    ("2021-01-01T00:00:00.0015Z", 1_609_459_200_002),
    ("2021-01-01T00:00:00.0025", 1_609_459_200_002),
    ("2021-01-01T00:00:00.000500001", 1_609_459_200_001),
    ("2024-01-01T00:00:00.000500100Z", 1_704_067_200_001),
    ("2024-01-01T00:00:00.0005001Z", 1_704_067_200_001),
    ("2021-01-01T00:00:00.999999999", 1_609_459_201_000),
    ("1969-12-31T23:59:59.9995Z", 0),
    # A float would round these to ...734 and ...846.
    ("7100-06-14T19:20:15.733479Z", 161_901_400_815_733),
    ("0002-02-02T22:54:05.154506+00:00", -62_101_213_554_845),
    ("2024-02-29", 1_709_164_800_000),
    ("2000-02-29T23:59:59", 951_868_799_000),
    ("1900-02-28", -2_203_977_600_000),
    ("2023-04-30", 1_682_812_800_000),
    ("2023-12-31T23:59:59", 1_704_067_199_000),
    ("0001-01-01T00:00:00", -62_135_596_800_000),
    ("0001-01-01T00:00+01:00", -62_135_600_400_000),
    ("9999-12-31T23:59:59.999-23:59", 253_402_387_139_999),
]
REJECTED = [
    # Outside the grammar: other forms of ISO 8601 and near misses.
    "2024-03-05X12:34:56", "2024-03-05T12", "2024-03-05T1234", "2024-03-05T12:34:5", "2024-03-05T1:34:56",
    "2024-3-05", "24-03-05", "+2024-03-05", "20240305", "20240305T123456Z", "2024-W10-2T12:34:56",
    "2024-065T12:34:56", "2024-03-05T12:34:56,5", "2024-03-05T12:34:56.", "2024-03-05T12:34:56.Z",
    "2024-03-05T12:34:56.1234567891Z", "2024-03-05T12:34.5", "2024-03-05T12:34:56+0530",
    "2024-03-05T12:34:56+05:30:15", "2024-03-05T12:34:56+05:30:15.5", "2024-03-05T12:34:56+5",
    "2024-03-05T12:34:56 +05:30", "2024-03-05T12:34:56Z+05:00", "2024-03-05T12:34+05.5", "2024-03-05T12:34Z.5",
    "2024-03-05T12:34:56UTC", "2024-03-05Z", "2024-03-05+05:00", "2024-03-05T12:34:56Z\x00",
    "2024-03-05T12:34:5\u0663", "\uff12024-03-05", "",
    # In the grammar, out of range.
    "0000-12-31", "2024-00-10", "2024-13-01", "2024-01-00", "2024-01-32", "2023-02-29", "1900-02-29",
    "2024-02-30", "2024-04-31", "2024-03-05T24:00", "2024-03-05T12:60", "2024-03-05T23:59:60",
    "2024-03-05T12:34:56+24:00", "2024-03-05T12:34:56-05:60",
]


def _vectorized(stamp):
    """`_iso_series`'s reading of a one-row file with this stamp, or None."""
    table = np.array([(stamp.encode("latin-1"), 1.0)], dtype=asap.io.PLAIN_DTYPES["double", True])
    try:
        return asap.io._iso_series(table).timestamps.tolist()[0]
    except ValueError:
        return None


@pytest.mark.parametrize("text,expected", ACCEPTED)
def test_accepted_iso_timestamps_read_the_same_in_both_parsers(text, expected):
    assert _parse_iso_ms(text) == expected
    assert _vectorized(text) == expected


@pytest.mark.parametrize("text", REJECTED)
def test_rejected_iso_timestamps_are_refused_by_both_parsers(text):
    with pytest.raises(ValueError):
        _parse_iso_ms(text)
    # A bytes field holds ASCII, less trailing NULs: `_load_plain` leaves a
    # file with a NUL to the line parser.
    if text.isascii() and "\x00" not in text:
        assert _vectorized(text) is None


@pytest.mark.parametrize("text", [
    "2023-02-28T00:00:00Z\x00", "2023-02-28T00:00:00+00:00\x00", "2023-02-28T00:00:00\x00",
    "2023-02-28T00:00:00.5\x00Z", "\x002023-02-28T00:00:00Z",
])
def test_iso_timestamps_refuse_a_nul(text):
    with pytest.raises(ValueError, match="not of the form"):
        _parse_iso_ms(text)


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("template", ["{}2021-01-01T00:00:01Z", "2021-01-01T00:00:01Z{}", " {}2021-01-01T00:00:01Z "])
def test_iso_timestamps_refuse_separator_characters(char, template):
    # int() and float() refuse U+001C-U+001F, though str.strip takes them for whitespace.
    with pytest.raises(ValueError):
        _parse_iso_ms(template.format(char))


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_a_separator_character_after_an_iso_timestamp_is_a_line_error(tmp_path, char):
    text = f"2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01Z{char},2\n"
    path = tmp_path / "separator.csv"
    path.write_text(text)
    for read in (lambda: _parse_lines(io.StringIO(text)), lambda: read_series(io.StringIO(text)), lambda: read_series(str(path))):
        with pytest.raises(ParseError, match="line 2: ") as caught:
            read()
        assert caught.value.lineno == 2


def test_a_nul_after_an_iso_timestamp_is_a_line_error():
    text = "2023-02-28T00:00:00Z,1\n2023-02-28T00:00:01Z\x00,2\n"
    with pytest.raises(ParseError, match="line 2: ") as caught:
        read_series(io.StringIO(text))
    assert caught.value.lineno == 2


def _fractions(places):
    """Fraction digits (an int below 10**places), often half a millisecond
    or just above it."""
    if places < 4:
        return st.integers(0, 10**places - 1)
    half = 5 * 10 ** (places - 4)
    near_half = st.builds(lambda ms, up: ms * 10 ** (places - 3) + half + up, st.integers(0, 999), st.integers(0, 1))
    return st.one_of(st.integers(0, 10**places - 1), near_half)


def _fields(t):
    return (t.year, t.month, t.day, t.hour, t.minute, t.second)


def _render(form, fields, fraction=0):
    """The stamp of `fields` (year, month, day, hour, minute, second, any of
    them out of range) in `form`: (precision, separator, fraction places,
    suffix)."""
    precision, sep, places, suffix = form
    year, month, day, hour, minute, second = fields
    text = f"{year:04}-{month:02}-{day:02}"
    if precision == "date":
        return text
    text += f"{sep}{hour:02}:{minute:02}"
    if precision == "second":
        text += f":{second:02}" + (f".{fraction:0{places}d}" if places else "")
    return text + suffix


# Each suffix a form may end with, and its offset in minutes.
SUFFIX_MINUTES = {"": 0, "Z": 0, "z": 0, "+00:00": 0, "-00:00": 0, "-07:30": -450, "+05": 300, "+14:00": 840}
ISO_FORMS = st.one_of(
    st.just(("date", "T", 0, "")),
    st.tuples(
        st.sampled_from(["minute", "second", "second"]), st.sampled_from("TTt "), st.integers(0, 9),
        st.sampled_from(sorted(SUFFIX_MINUTES)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)).map(lambda t: t.replace(microsecond=0)),
    ISO_FORMS,
    st.data(),
)
def test_iso_milliseconds_match_exact_rational_rounding(naive, form, data):
    precision, _, places, suffix = form
    digits = data.draw(_fractions(places)) if precision == "second" else 0
    text = _render(form, _fields(naive), digits)
    shown = {"date": dict(hour=0, minute=0, second=0), "minute": dict(second=0), "second": {}}[precision]
    delta = naive.replace(**shown) - datetime(1970, 1, 1)
    seconds = delta.days * 86_400 + delta.seconds - 60 * SUFFIX_MINUTES[suffix] + Fraction(digits, 10**places)
    assert _parse_iso_ms(text) == round(seconds * 1000) == _vectorized(text)


# Differential check of read_series's numpy fast path against the line parser:
# both must give the same rows, to the bit, or the same error text.
TRICKY = [
    "1_0", "\u0663", "5.0", "1e3", "inf", "-inf", "nan", "1e999", "1e-400",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "+7", "-0.0", ".5", "5.", "0x10", "1d3", "1j",
    "\x0c", "\x0c3", "3\x0c", " 4 ", "\t", "", " ", "abc", "\x00", "3\x00",
    "\udcff", "\x1c2", "2\xa0", "\u2028", "2021-01-01T00:00:00Z", '"1"', "1#2",
]
HEADERS = ["timestamp,value", "value", "t,v,w", "\ufeff1,2", "\ufefftimestamp,value"]
BLANKS = ["", " \t", "\x0c"]
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}.{}e{}".format, st.integers(-(10**20), 10**20), st.integers(0, 10**25), st.integers(-99, 99)),
)


# ISO files start at a random second or at a midnight at the end of February:
# most in century years that are common years, where Feb 29 is invalid.
ISO_STARTS = st.one_of(
    st.datetimes(min_value=datetime(1, 2, 2), max_value=datetime(9990, 12, 30)).map(lambda t: t.replace(microsecond=0)),
    st.builds(
        lambda year, back: datetime(year, 3, 1) - timedelta(days=back),
        st.sampled_from([1700, 1800, 1900, 2100, 2200, 2300, 2000, 2023, 2024]), st.sampled_from([0, 0, 1]),
    ),
)


def _iso_near_misses(t, form, fraction):
    """Timestamps outside `form` made from the stamp of time `t` in it; two
    draws in three are out of range, made so that a reader skipping one range
    check would take them for a time next to `t`."""
    precision, sep, places, suffix = form
    text = _render(form, _fields(t), fraction)
    other_forms = [
        (precision, {"T": "t", "t": " ", " ": "T"}[sep], places, suffix),
        (precision, "X", places, suffix),
        ("second", sep, places + 1, suffix),  # 10 digits are outside the grammar
        ("minute" if precision == "second" else "second", sep, places, suffix),
        (precision, sep, places, "+05:30"), (precision, sep, places, "+0530"), (precision, sep, places, "+05:30:15"),
    ]
    misses = [_render(other, _fields(t), fraction) for other in other_forms] + [
        " " + text + " ", text + "9", text + "\x00", "\u0663" + text[1:], str(t.second), "0000" + text[4:],
        text[:13], text[:10] + "Z", text.replace("-", "").replace(":", ""),
    ]
    last_month = t.replace(day=1) - timedelta(days=1)
    day_after, day_before, hour_before, minute_before = (
        t + timedelta(**{unit: sign}) for unit, sign in (("days", 1), ("days", -1), ("hours", -1), ("minutes", -1))
    )
    aliases = [
        (last_month.year, last_month.month, last_month.day + t.day, t.hour, t.minute, t.second),  # past the month's end
        (t.year - 1, t.month + 12, t.day, t.hour, t.minute, t.second),  # month 13 or 14
        (day_after.year, day_after.month, 0, t.hour, t.minute, t.second),  # day 0
        (*_fields(day_before)[:3], t.hour + 24, t.minute, t.second),  # hour 24 and up
        (*_fields(hour_before)[:4], t.minute + 60, t.second),  # minute 60 and up
        (*_fields(minute_before)[:5], t.second + 60),  # second 60 and up
    ]
    aliases = [_render(form, fields, fraction) for fields in aliases]
    return st.one_of(st.sampled_from(misses), st.sampled_from(aliases), st.sampled_from(aliases))


@settings(max_examples=500, deadline=None)
@given(ISO_STARTS, ISO_FORMS, st.data())
def test_both_iso_parsers_read_near_misses_alike(t, form, data):
    fraction = data.draw(_fractions(form[2])) if form[0] == "second" else 0
    text = data.draw(_iso_near_misses(t, form, fraction))
    try:
        expected = _parse_iso_ms(text)
    except ValueError:
        expected = None
    if text == text.strip() and text.isascii() and "\x00" not in text:  # what a bytes field holds as it is
        assert _vectorized(text) == expected


@st.composite
def _edited_stamps(draw):
    """A stamp with one to three edits: a piece of a stamp inserted, or a
    character deleted or replaced."""
    t, form = draw(ISO_STARTS), draw(ISO_FORMS)
    text = _render(form, _fields(t), draw(_fractions(form[2])) if form[0] == "second" else 0)
    for _ in range(draw(st.integers(1, 3))):
        at, edit = draw(st.integers(0, len(text))), draw(st.sampled_from(["insert", "delete", "replace"]))
        pieces = "0123456789-:.+zZtT " if edit == "replace" else ["", ".5", ":30", ":00", "+05", "Z", "T12", "-"]
        text = text[:at] + draw(st.sampled_from(pieces)) + text[at + (edit != "insert"):]
    return text


def _ms_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "error"


@settings(max_examples=1000, deadline=None)
@given(_edited_stamps())
def test_a_stamp_read_in_parts_reads_as_when_read_whole(text):
    # _parse_iso_ms reads a stamp as cached parts, each a stamp of its own.
    whole = asap.io._stamp_ms.__wrapped__
    assert _ms_or_error(_parse_iso_ms, text) == _ms_or_error(whole, text.strip())


@settings(max_examples=1000, deadline=None)
@given(
    ISO_STARTS, st.sampled_from("Tt "),
    st.one_of(st.none(), st.text("0123456789", max_size=10), st.text("0123456789\u0663\uff15\u00b2.", max_size=10)),
    st.sampled_from(["", "Z", "z", "+00:00", "-07:30", "+05", "+14:00", "+24:00", "+05:60", "+0530", "\u0663", "Z9", "5"]),
)
def test_a_fraction_converted_on_its_own_reads_as_the_whole_stamp(t, sep, fraction, zone):
    # _parse_iso_ms converts 1-9 ASCII fraction digits itself and reads the
    # zone after them as a part of its own; any other tail after the seconds
    # is read as a stamp.
    text = _render(("second", sep, 0, ""), _fields(t)) + ("" if fraction is None else "." + fraction) + zone
    whole = asap.io._stamp_ms.__wrapped__
    assert _ms_or_error(_parse_iso_ms, text) == _ms_or_error(whole, text)


@st.composite
def csv_texts(draw):
    iso = draw(st.booleans())  # timestamps in one ISO form per file
    near_miss = iso and draw(st.booleans())  # one stamp replaced at the end, in a file clean otherwise
    columns = 2 if iso else draw(st.sampled_from([1, 2, 2, 3]))
    dirt = 0 if near_miss else draw(st.sampled_from([0, 0, 1, 3, 10]))  # in 10: the share of rows that are not clean
    lines = [draw(st.sampled_from(HEADERS))] if draw(st.booleans()) else []
    if iso:
        t, form = draw(ISO_STARTS), draw(ISO_FORMS)

        def fraction():
            return draw(_fractions(form[2])) if form[0] == "second" else 0

        def stamp(t):
            return _render(form, _fields(t), fraction())

        def step():  # at least a second, so that rows stay in order whatever their fractions
            return timedelta(seconds=draw(st.integers(1, 10 ** draw(st.sampled_from([0, 2, 4, 6])))))
    else:
        t = draw(st.one_of(st.integers(-1000, 1000), st.integers(-(2**63), 2**63 - 1)))
        stamp = str

        def step():
            return draw(st.integers(0, 1000))
    rows = []  # (index in lines, time, the fields after the stamp) of each data row
    for _ in range(draw(st.integers(1, 8))):
        t += step()
        fields = [stamp(t)] if columns >= 2 else []
        fields += [draw(NUMBER) for _ in range(max(1, columns - 1))]
        clean = fields[:]
        if draw(st.integers(0, 9)) < dirt:
            choice = draw(st.integers(0, 3))
            if choice == 0:
                at = draw(st.integers(0, len(fields) - 1))
                fields[at] = draw(_iso_near_misses(t, form, fraction()) if iso and at == 0 else st.sampled_from(TRICKY))
            elif choice == 1:
                fields = fields[:-1] if len(fields) > 1 else fields + ["1"]
            elif choice == 2 and columns >= 2:
                fields[0] = stamp(t - (timedelta(days=1) if iso else draw(st.integers(1001, 1005))))  # below the row before
            elif choice == 3:
                lines.append(draw(st.sampled_from(BLANKS + HEADERS)))
        rows.append((len(lines), t, clean[1:]))
        lines.append(",".join(fields))
    if near_miss and len(rows) > 1:
        at, t, rest = draw(st.sampled_from(rows[1:]))  # the first data row decides the format
        lines[at] = ",".join([draw(_iso_near_misses(t, form, fraction()))] + rest)
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + ending.join(lines) + (ending if draw(st.booleans()) else "")


def _outcome(read):
    try:
        series = read()
    except ParseError as exc:
        return str(exc)
    return series.timestamps.tolist(), [v.hex() for v in series.values.tolist()]


@settings(max_examples=1500, deadline=None)
@given(text=csv_texts())
def test_read_series_equals_the_line_parser(text, tmp_path_factory):
    # A stream goes to the line parser itself; a file's name goes to numpy.
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with open(path, **DECODING) as fh:
        expected = _outcome(lambda: _parse_lines(fh))
    assert _outcome(lambda: read_series(str(path))) == expected


@settings(max_examples=200, deadline=None)
@given(text=csv_texts())
def test_count_rows_counts_what_iter_rows_yields(text):
    assert count_rows(io.StringIO(text)) == len(list(iter_rows(io.StringIO(text))))


@pytest.mark.parametrize("text", [
    "timestamp,value\n1000,1.5\n2000,-2.5\n2000,0.1\n",
    "value\n1.5\n-2.5\n1e3\n",
    "7,0.5\n8,0.25\n",
    "0.5\n0.25\n",
])
def test_plain_files_load_without_the_line_parser(tmp_path, monkeypatch, text):
    expected = _parse_lines(io.StringIO(text))
    path = tmp_path / "plain.csv"
    path.write_text(text)

    def no_line_parser(lines):
        raise AssertionError("the line parser ran on a plain file")

    monkeypatch.setattr(asap.io, "iter_rows", no_line_parser)
    got = read_series(str(path))
    assert got.timestamps.tolist() == expected.timestamps.tolist()
    assert got.values.tolist() == expected.values.tolist()


@pytest.mark.parametrize("text", [
    "timestamp,value\n2021-01-01T00:00:00Z,1.5\n2021-01-01T00:00:01Z,-2.5\n2021-01-01T00:00:01Z,0.1\n",
    "2024-02-29T23:59:59.999z,1.0\n2024-03-01T00:00:00.001z,2.0\n",
    # 9 digits and "+00:00": the longest plain stamp, 35 characters.
    "1900-02-28T23:59:59.999999999+00:00,1\n1900-03-01T00:00:00.000500000+00:00,2\n"
    "2000-02-29T12:00:00.000500001+00:00,3\n",
    "value\n0001-01-01T00:00:00,1\n1969-12-31T23:59:59,2\n9999-12-31T23:59:59,3\n",
    "2021-01-01T00:00:00.0005,1\n2021-01-01T00:00:00.0015,2\n2021-01-01T00:00:00.0025,3\n",
    "2021-01-01T05:30:00+05:30,1\n2021-01-01T05:30:01+05:30,2\n",
    "2021-01-01 00:00:00,1\n2021-01-01 00:00:01,2\n",
    "2021-01-01t00:00:00,1\n2021-01-01t00:00:01,2\n",
    "2021-01-01,1\n2021-01-02,2\n",
    "2021-01-01 23:59-08,1\n2021-01-02 00:00-08,2\n",
    "2021-01-01T00:00:59Z,1\n2021-01-01T00:01:00Z,2\n2021-01-01T00:01:01Z,3\n2021-01-01T01:01:01Z,4\n",
])
def test_plain_iso_files_load_without_the_line_parser(tmp_path, monkeypatch, text):
    test_plain_files_load_without_the_line_parser(tmp_path, monkeypatch, text)


# ISO files whose stamps do not all have the first's shape or are out of range,
# each built so that a numpy reader that skipped the check in question would
# read rows in order and keep them.
@pytest.mark.parametrize("text", [
    "2021-01-01T05:30:00+05:30,1\n2021-01-01T05:30:01-05:30,2\n",
    "2021-01-01T00:00:00,1\n2021-01-01 00:00:01,2\n",
    "2023-02-28T00:00:00Z,1\n2023-02-29T00:00:00Z,2\n2023-03-01T00:00:00Z,3\n",
    "1900-02-28T00:00:00Z,1\n1900-02-29T00:00:00Z,2\n1900-03-01T00:00:00Z,3\n",
    "2021-01-01T23:00:00Z,1\n2021-01-01T24:00:00Z,2\n2021-01-02T00:00:00Z,3\n",
    "2021-01-01T00:59:00Z,1\n2021-01-01T00:60:00Z,2\n2021-01-01T01:00:00Z,3\n",
    "2021-01-01T00:00:59Z,1\n2021-01-01T00:00:60Z,2\n2021-01-01T00:01:00Z,3\n",
    "2021-12-31T00:00:00Z,1\n2021-13-01T00:00:00Z,2\n2022-01-01T00:00:00Z,3\n",
    "2021-01-31T00:00:00Z,1\n2021-02-00T00:00:00Z,2\n2021-02-01T00:00:00Z,3\n",
    "0001-01-01T00:00:00Z,1\n0000-12-31T00:00:00Z,2\n",
    "2021-01-01T00:00:00Z,1\n 2021-01-01T00:00:01Z,2\n",
    "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01Z,2\n1609459202000,3\n",
    "2021-01-01T00:00:00.5Z,1\n2021-01-01T00:00:00.55Z,2\n",
    "2021-01-01T00:00:00.123456789+00:00,1\n2021-01-01T00:00:00.123456789+00:000,2\n",
    "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01Z9,2\n",
    "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01Z\x00,2\n",
    "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:0\u0663Z,2\n",
])
def test_iso_files_outside_the_plain_shape_read_as_the_line_parser_reads_them(tmp_path, text):
    expected = _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert _outcome(lambda: read_series(io.StringIO(text))) == expected
    path = tmp_path / "iso.csv"
    path.write_text(text)
    assert _outcome(lambda: read_series(str(path))) == expected


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("first,stamp", [("1", "2"), ("2021-01-01T00:00:00Z", "2021-01-01T00:00:01Z")])
@pytest.mark.parametrize("before_comma", [True, False])
def test_separator_characters_beside_a_comma_read_as_the_line_parser_reads_them(tmp_path, char, first, stamp, before_comma):
    # np.loadtxt strips U+001C-U+001F around a number; int() and float() refuse them.
    row = f"{stamp}{char},2" if before_comma else f"{stamp},{char}2"
    text = f"{first},0.0\n{row}\n"
    expected = _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert _outcome(lambda: read_series(io.StringIO(text))) == expected
    path = tmp_path / "separators.csv"
    path.write_text(text)
    assert _outcome(lambda: read_series(str(path))) == expected


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """(what np.loadtxt was given to read, skiprows) of each call."""
    calls = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        calls.append((source, kwargs.get("skiprows", 0)))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(asap.io.np, "loadtxt", spy)
    return calls


@pytest.mark.parametrize("text,skip", [("7,0.5\n8,0.25\n", 0), ("timestamp,value\n7,0.5\n8,0.25\n", 1),
                                       (" \n0.5\n0.25\n", 1), ("2021-01-01T00:00:00Z,1\n", 0)])
def test_a_regular_file_reaches_numpy_by_its_path(tmp_path, monkeypatch, loadtxt_sources, text, skip):
    # numpy reads a path in blocks, and a stream one Python string per line.
    (tmp_path / "plain.csv").write_text(text)
    monkeypatch.chdir(tmp_path)
    expected = _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert _outcome(lambda: read_series("plain.csv")) == expected
    assert loadtxt_sources == [(str(tmp_path / "plain.csv"), skip)]


@pytest.mark.parametrize("text", [
    "timestamp,value\n7,0.5\n8,0.25\n",
    "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01.5Z,2\n",
    "2021-01-01T00:00:00,1\n2021-01-01 00:00:01,2\n",  # mixed stamp shapes: the line parser's
])
def test_a_path_like_reads_as_its_name_does(tmp_path, loadtxt_sources, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    by_name = read_series(str(path))
    name_calls = list(loadtxt_sources)
    assert name_calls == [(str(path), 0 if text[0].isdigit() else 1)]
    for like in (path, os.fsencode(path)):
        del loadtxt_sources[:]
        got = read_series(like)
        assert loadtxt_sources == name_calls  # numpy got the name, and read in blocks
        for mine, want in ((got.timestamps, by_name.timestamps), (got.values, by_name.values)):
            assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()


def test_a_header_that_is_not_utf8_sends_the_file_to_the_line_parser(tmp_path, loadtxt_sources):
    # numpy decodes a path strictly, the header it skips too, and raises: the
    # line parser reads the file, the header's byte escaped by `DECODING`.
    path = tmp_path / "cp1252.csv"
    path.write_bytes("température,valeur\n7,0.5\n8,0.25\n".encode("cp1252"))
    with open(path, **DECODING) as fh:
        expected = _outcome(lambda: _parse_lines(fh))
    assert expected == ([7, 8], [(0.5).hex(), (0.25).hex()])
    assert _outcome(lambda: read_series(str(path))) == expected
    assert loadtxt_sources == [(str(path), 1)]


def test_a_relative_path_shaped_like_a_url_is_read_as_a_file(tmp_path, monkeypatch, loadtxt_sources):
    # numpy fetches a `scheme://host/...` string it is given; a refused
    # localhost port makes a regression fail at once.
    folder = tmp_path / "http:" / "localhost:1"
    folder.mkdir(parents=True)
    (folder / "x.csv").write_text("7,0.5\n8,0.25\n")
    monkeypatch.chdir(tmp_path)
    assert read_series("http://localhost:1/x.csv").timestamps.tolist() == [7, 8]
    [(source, skip)] = loadtxt_sources
    assert source.startswith(os.sep) and os.path.samefile(source, folder / "x.csv") and skip == 0


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs os.symlink")
@pytest.mark.parametrize("decoy", [True, False])
def test_a_path_through_a_link_reaches_numpy_meaning_the_file_that_was_opened(tmp_path, monkeypatch, loadtxt_sources,
                                                                             decoy):
    # `link/../data.csv` climbs out of the link's target, not out of `link`:
    # a path tidied as text would name `work/data.csv`.
    text = "timestamp,value\n7,0.5\n8,0.25\n"
    (tmp_path / "elsewhere" / "dir").mkdir(parents=True)
    (tmp_path / "elsewhere" / "data.csv").write_text(text)
    work = tmp_path / "work"
    work.mkdir()
    (work / "link").symlink_to(tmp_path / "elsewhere" / "dir", target_is_directory=True)
    if decoy:
        (work / "data.csv").write_text("timestamp,value\n1,9.5\n2,9.25\n")
    monkeypatch.chdir(work)
    assert _outcome(lambda: read_series("link/../data.csv")) == _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert [(type(source), skip) for source, skip in loadtxt_sources] == [(str, 1)]


def test_a_file_removed_after_it_was_opened_is_read_through_the_open_handle(tmp_path, monkeypatch):
    # numpy opens the path afresh and finds nothing: the line parser reads
    # the handle read_series holds.
    text = "7,0.5\n8,0.25\n"
    path = tmp_path / "gone.csv"
    path.write_text(text)
    loadtxt = np.loadtxt

    def remove_first(source, *args, **kwargs):
        if isinstance(source, str):
            os.remove(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(asap.io.np, "loadtxt", remove_first)
    assert _outcome(lambda: read_series(str(path))) == _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert not path.exists()


@pytest.mark.parametrize("text", ["timestamp,value\n7,0.5\n8,0.25\n", "0.5\n0.25\n",
                                  "2021-01-01T00:00:00Z,1\n2021-01-01T00:00:01.5Z,2\n"], ids=["int-ms", "values", "iso"])
def test_an_open_stream_never_reaches_numpy(tmp_path, loadtxt_sources, text):
    got = read_series(io.StringIO(text))
    assert loadtxt_sources == []
    path = tmp_path / "data.csv"
    path.write_text(text)
    by_path = read_series(str(path))
    assert loadtxt_sources == [(str(path), 0 if text[0].isdigit() else 1)]
    for mine, want in ((got.timestamps, by_path.timestamps), (got.values, by_path.values)):
        assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()


def test_every_suffix_numpy_decompresses_is_guarded():
    from numpy.lib import _datasource

    assert {suffix for suffix in _datasource._file_openers.keys() if suffix} <= set(COMPRESSED)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("text", ["timestamp,value\n7,0.5\n8,0.25\n", "7,0.5\n8,oops\n"])
def test_a_plain_file_named_like_a_compressed_one_is_read_as_text(tmp_path, loadtxt_sources, suffix, text):
    path = tmp_path / f"data.csv{suffix}"
    path.write_text(text)
    assert _outcome(lambda: read_series(str(path))) == _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert loadtxt_sources == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("text", ["timestamp,value\n7,0.5\n8,0.25\n", "0.5\n0.25\n", "7,0.5\n8,oops\n"])
def test_a_fifo_is_read_once_by_the_line_parser(tmp_path, loadtxt_sources, text):
    fifo = tmp_path / "feed.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    got = _outcome(lambda: read_series(str(fifo)))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _outcome(lambda: _parse_lines(io.StringIO(text)))
    assert all(source != str(fifo) for source, _ in loadtxt_sources)
