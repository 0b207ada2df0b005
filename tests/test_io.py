"""CSV reading and writing: formats, line numbers, round trips."""
import io

import numpy as np
import pytest

from asap.io import ParseError, iter_rows, read_series, write_series
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
    s = Series.from_values(rng.normal(size=64) * 1e-3, start=1_600_000_000_000, step=60_000)
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
