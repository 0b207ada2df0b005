"""CLI behavior: subcommands, exit codes, determinism, output formats."""
import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asap
from asap.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from asap.generators import noisy_sine
from asap.io import read_series, write_series
from asap.metrics import kurtosis, population_std, zscore


@pytest.fixture(scope="module")
def sine_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sine.csv"
    series = noisy_sine(6000, period=200, noise=0.35, seed=10)
    with open(path, "w", encoding="utf-8") as fh:
        write_series(series, fh)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_meta(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_smooth_emits_csv_and_meta(sine_csv, tmp_path, capsys):
    meta_path = str(tmp_path / "meta.json")
    code, out, err = run_cli(
        ["smooth", "--input", sine_csv, "--resolution", "1200", "--meta", meta_path], capsys
    )
    assert code == EXIT_OK

    smoothed = read_series(io.StringIO(out))
    meta = read_meta(meta_path)
    assert set(meta) == {
        "window", "raw_len", "aggregated_len", "ratio", "roughness",
        "kurtosis_before", "kurtosis_after", "candidates_evaluated",
        "elapsed_seconds", "strategy",
    }
    assert meta["strategy"] == "asap"
    assert meta["raw_len"] == 6000
    assert meta["ratio"] == 5
    assert meta["aggregated_len"] == 1200
    assert len(smoothed) == meta["aggregated_len"] - meta["window"] + 1
    assert err == ""  # diagnostics went to the file, not stderr


def test_smooth_meta_on_stderr_by_default(sine_csv, capsys):
    code, out, err = run_cli(["smooth", "--input", sine_csv], capsys)
    assert code == EXIT_OK
    meta = json.loads(err)
    assert meta["window"] >= 1


def test_smooth_asap_matches_exhaustive(sine_csv, tmp_path, capsys):
    windows = {}
    for strategy in ("asap", "exhaustive"):
        meta_path = str(tmp_path / f"{strategy}.json")
        code, _, _ = run_cli(
            ["smooth", "--input", sine_csv, "--resolution", "1200",
             "--strategy", strategy, "--meta", meta_path], capsys,
        )
        assert code == EXIT_OK
        windows[strategy] = read_meta(meta_path)["window"]
    assert windows["asap"] == windows["exhaustive"]


def test_smooth_output_is_deterministic(sine_csv, tmp_path, capsys):
    runs = []
    for i in range(2):
        meta_path = str(tmp_path / f"meta{i}.json")
        code, out, _ = run_cli(
            ["smooth", "--input", sine_csv, "--meta", meta_path], capsys
        )
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]


def test_smooth_zscore_does_not_change_the_window(sine_csv, tmp_path, capsys):
    plain = str(tmp_path / "plain.json")
    scaled = str(tmp_path / "scaled.json")
    run_cli(["smooth", "--input", sine_csv, "--meta", plain], capsys)
    run_cli(["smooth", "--input", sine_csv, "--zscore", "--meta", scaled], capsys)
    assert read_meta(plain)["window"] == read_meta(scaled)["window"]


def test_smooth_single_column_and_iso_inputs(tmp_path, capsys):
    single = tmp_path / "single.csv"
    single.write_text("".join(f"{v}\n" for v in (1.0, 2.0, 1.0, 2.0, 1.5, 0.5)))
    code, out, _ = run_cli(["smooth", "--input", str(single)], capsys)
    assert code == EXIT_OK

    iso = tmp_path / "iso.csv"
    iso.write_text(
        "2021-01-01T00:00:00Z,1.0\n2021-01-01T00:00:01Z,2.0\n"
        "2021-01-01T00:00:02Z,1.5\n2021-01-01T00:00:03Z,0.5\n"
    )
    code, out, _ = run_cli(["smooth", "--input", str(iso)], capsys)
    assert code == EXIT_OK
    first = out.splitlines()[1]
    assert first.split(",")[0] == "1609459200000"


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_smooth_reads_a_plain_file_named_like_a_compressed_one(sine_csv, tmp_path, capsys, suffix):
    # np.loadtxt would decompress a path so named.
    named = tmp_path / f"data.csv{suffix}"
    named.write_bytes(Path(sine_csv).read_bytes())
    expected = run_cli(["smooth", "--input", sine_csv], capsys)
    code, out, err = run_cli(["smooth", "--input", str(named)], capsys)
    assert code == EXIT_OK
    assert out == expected[1]
    assert "Traceback" not in err


def test_smooth_survives_a_closed_stdout_pipe(sine_csv, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["smooth", "--input", sine_csv]) == EXIT_OK
    capsys.readouterr()


def test_smooth_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["smooth", "--input", "/nonexistent/series.csv"], capsys)
    assert code == EXIT_INPUT
    assert "error" in err


def test_smooth_bad_row_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1.0\n2,2.0\n3,oops\n4,4.0\n")
    code, _, err = run_cli(["smooth", "--input", str(bad)], capsys)
    assert code == EXIT_INPUT
    assert "line 3" in err



# `asap smooth` and `asap stream --strict` refuse the same rows with the
# same stderr, byte for byte.
@pytest.mark.parametrize("command", [
    ["smooth"],
    ["stream", "--strict", "--ratio", "1", "--refresh", "1"],
], ids=["smooth", "stream"])
@pytest.mark.parametrize("row,message", [
    ("3,oops", "line 3: cannot parse row '3,oops': could not convert string to float: 'oops'"),
    ("99999999999999999999999,4", "line 3: timestamp 99999999999999999999999 outside the int64 range"),
    ("3,nan", "line 3: non-finite value nan"),
    ("1,1.0", "line 3: out-of-order point: 1 after 2"),
])
def test_smooth_and_strict_stream_refuse_a_bad_row_alike(tmp_path, capsys, command, row, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1,1.0\n2,2.0\n{row}\n4,4.0\n5,1.0\n")
    code, out, err = run_cli([*command, "--input", str(bad)], capsys)
    assert code == EXIT_INPUT
    assert err == f"error: {message}\n"
    assert out == ""


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _cli_subprocess(args, cwd, stdin=None):
    # A subprocess, because overflowing moments still emit RuntimeWarnings,
    # which this suite turns into errors.
    env = dict(os.environ, PYTHONPATH=str(Path(asap.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "asap.cli", *args], input=stdin, capture_output=True,
        text=True, env=env, cwd=cwd, timeout=120,
    )


def test_stream_records_stay_json_when_moments_overflow(tmp_path):
    # Pane means near 5e307 overflow the moments and the ACF at refresh.
    feed = "1,1e308\n2,1e308\n" + "".join(f"{t},{1 + t % 3}\n" for t in range(3, 15))
    proc = _cli_subprocess(["stream", "--stdin", "--ratio", "2", "--refresh", "1"], tmp_path, feed)
    assert proc.returncode == EXIT_OK, proc.stderr
    records = [_strict_json(line) for line in proc.stdout.splitlines()]
    assert len(records) == 3
    assert all(r["roughness"] is None and r["kurtosis"] is None for r in records)


def test_smooth_meta_stays_json_when_moments_overflow(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("".join(f"{i},{1e200 if i % 2 else -1e200}\n" for i in range(200)))
    meta_path = tmp_path / "meta.json"
    proc = _cli_subprocess(["smooth", "--input", str(path), "--meta", str(meta_path)], tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    meta = _strict_json(meta_path.read_text())
    assert meta["roughness"] is None and meta["kurtosis_before"] is None
    assert len(proc.stdout.splitlines()) == 201


def test_smooth_tiny_spread_is_not_an_error(tmp_path, capsys):
    # A spread of 1e-160 underflows m2 * m2 inside kurtosis.
    path = tmp_path / "tiny.csv"
    path.write_text("".join(f"{v}\n" for v in ["0", "1e-160", "2e-160"] * 13 + ["0"]))
    meta_path = str(tmp_path / "meta.json")
    code, out, err = run_cli(["smooth", "--input", str(path), "--meta", meta_path], capsys)
    assert code == EXIT_OK
    assert err == ""
    meta = read_meta(meta_path)
    assert meta["kurtosis_before"] == pytest.approx(kurtosis([0.0, 1.0, 2.0] * 13 + [0.0]), rel=1e-12)
    assert len(read_series(io.StringIO(out))) == 40 - meta["window"] + 1


@pytest.mark.parametrize("command", ["smooth", "plot"])
def test_zscore_keeps_a_spread_whose_squares_overflow(tmp_path, capsys, command):
    # Squared deviations of 1e308 overflow; z-scored, the series is not flat.
    path = tmp_path / "huge.csv"
    path.write_text("1,1\n2,2\n3,1e308\n4,-1e308\n5,1e308\n6,-1e308\n7,1\n8,2\n")
    assert population_std(zscore(read_series(str(path))).values) == pytest.approx(1.0, abs=1e-12)
    meta_path = tmp_path / "meta.json"
    extra = ["--zscore", "--meta", str(meta_path)] if command == "smooth" else ["--out", str(tmp_path / "z.svg")]
    code, _, err = run_cli([command, "--input", str(path), *extra], capsys)
    assert code == EXIT_OK
    assert err == ""  # no RuntimeWarning either: this suite raises them
    if command == "smooth":
        assert read_meta(meta_path)["roughness"] > 0


def test_smooth_too_few_rows_is_input_error(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("1,1.0\n2,2.0\n3,3.0\n")
    code, _, err = run_cli(["smooth", "--input", str(tiny)], capsys)
    assert code == EXIT_INPUT
    assert "need at least 4 points" in err



@pytest.mark.parametrize("extra", [[], ["--zscore"]])
def test_smooth_constant_input_writes_null_kurtosis(tmp_path, capsys, extra):
    # A constant file has no spread to z-score; --zscore leaves it as it is,
    # as `asap plot` does.
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{t},7.5\n" for t in range(5)))
    meta_path = str(tmp_path / "meta.json")
    code, out, _ = run_cli(["smooth", "--input", str(path), "--meta", meta_path, *extra], capsys)
    assert code == EXIT_OK
    meta = _strict_json(Path(meta_path).read_text())
    assert meta["kurtosis_before"] is None and meta["kurtosis_after"] is None
    assert meta["window"] == 1 and meta["roughness"] == 0.0
    assert len(read_series(io.StringIO(out))) == 5

def test_bad_resolution_is_config_error(sine_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smooth", "--input", sine_csv, "--resolution", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "resolution" in capsys.readouterr().err


def _config_exit(argv):
    """main's exit status, whether it returns it or raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def command_args(sine_csv, tmp_path):
    return {
        "smooth": ["smooth", "--input", sine_csv],
        "stream": ["stream", "--input", sine_csv, "--refresh", "1"],
        "bench": ["bench", "--gen", "sine"],
        "plot": ["plot", "--input", sine_csv, "--out", str(tmp_path / "plot.svg")],
    }


@pytest.mark.parametrize("command,flag,value", [
    *((c, f, v) for c in ("smooth", "stream", "bench", "plot")
      for f, v in (("--resolution", "1"), ("--resolution", "3"), ("--max-window", "0"))),
    ("stream", "--refresh", "0"),
    ("stream", "--ratio", "0"),
    ("bench", "--gen-points", "3"),
])
def test_every_bounded_flag_is_a_config_error(command_args, capsys, command, flag, value):
    assert _config_exit([*command_args[command], flag, value]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert flag.lstrip("-") in err
    assert out == ""


def test_unknown_strategy_is_rejected_by_the_parser(sine_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smooth", "--input", sine_csv, "--strategy", "magic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stream_replays_file_and_matches_batch(sine_csv, tmp_path, capsys):
    code, out, err = run_cli(
        ["stream", "--input", sine_csv, "--refresh", "300", "--resolution", "1200"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4  # 1200 panes, one refresh every 300

    records = [json.loads(line) for line in lines]
    assert [r["refresh_index"] for r in records] == [1, 2, 3, 4]
    assert records[-1]["points_consumed"] == 6000
    for r in records:
        assert set(r) == {"refresh_index", "window", "roughness", "kurtosis", "points_consumed"}
    assert "throughput:" in err

    meta_path = str(tmp_path / "batch.json")
    run_cli(["smooth", "--input", sine_csv, "--resolution", "1200", "--meta", meta_path], capsys)
    assert records[-1]["window"] == read_meta(meta_path)["window"]


def _stream_fifo(tmp_path, text, argv, capsys):
    """run_cli on `asap stream --input <fifo>`, `text` written into it from a thread."""
    fifo = tmp_path / "feed.csv"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass  # the reader gave up without reading

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    outcome = run_cli(["stream", "--input", str(fifo), *argv], capsys)
    writer.join(timeout=10)
    assert not writer.is_alive()
    return outcome


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_stream_reads_a_pipe_once_when_given_the_ratio(sine_csv, tmp_path, capsys):
    argv = ["--refresh", "5", "--resolution", "100", "--ratio", "10"]
    want = run_cli(["stream", "--input", sine_csv, *argv], capsys)
    code, out, _ = _stream_fifo(tmp_path, Path(sine_csv).read_text(encoding="utf-8"), argv, capsys)
    assert code == want[0] == EXIT_OK
    assert out == want[1] and out.count("\n") == 600 // 5


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_stream_needs_the_ratio_for_a_pipe(sine_csv, tmp_path, capsys):
    text = Path(sine_csv).read_text(encoding="utf-8")
    code, out, err = _stream_fifo(tmp_path, text, ["--refresh", "5", "--resolution", "100"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "--ratio" in err and "--stdin" in err and "Traceback" not in err


def test_stream_from_stdin(monkeypatch, capsys):
    rows = "".join(f"{1.0 if i % 2 else 0.0}\n" for i in range(12))
    monkeypatch.setattr("sys.stdin", io.StringIO(rows))
    code, out, err = run_cli(["stream", "--stdin", "--refresh", "1", "--resolution", "8"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9  # refreshes start at the fourth pane
    assert json.loads(lines[0])["points_consumed"] == 4


def test_stream_empty_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(["stream", "--stdin", "--refresh", "1"], capsys)
    assert code == EXIT_OK
    assert out == ""
    assert "0 points" in err


@pytest.mark.parametrize("text", ["", "timestamp,value\n", "\n\n"])
def test_stream_file_with_no_rows_replays_nothing(tmp_path, capsys, text):
    # No --ratio: the pane ratio comes from a row count of 0.
    path = tmp_path / "empty.csv"
    path.write_text(text)
    code, out, err = run_cli(["stream", "--input", str(path), "--refresh", "1"], capsys)
    assert (code, out) == (EXIT_OK, "")
    assert err.startswith("throughput: ") and err.endswith(" (0 points, 0 refreshes)\n")



@pytest.mark.parametrize("header", ["", "timestamp,value\n"])
def test_stream_input_ignores_a_byte_order_mark(tmp_path, capsys, header):
    rows = "".join(f"{t},{v}\n" for t, v in enumerate([5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 6.0], 1))
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(header + rows)
    marked.write_bytes(b"\xef\xbb\xbf" + (header + rows).encode())
    outputs = []
    for path in (plain, marked):
        code, out, err = run_cli(
            ["stream", "--input", str(path), "--refresh", "1", "--resolution", "4"], capsys
        )
        assert code == EXIT_OK
        assert "(8 points, 1 refreshes)" in err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_stream_stdin_ignores_a_byte_order_mark(monkeypatch, capsys):
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 6.0]
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + "".join(f"{v}\n" for v in values)))
    code, _, err = run_cli(["stream", "--stdin", "--refresh", "1", "--resolution", "4"], capsys)
    assert code == EXIT_OK
    assert "(8 points, " in err


# Line 4 does not parse; every other row is fine.
UNPARSEABLE_FEED = "1,1\n2,3\n3,2\nabc,4\n5,1\n6,2\n7,5\n8,1\n9,2\n"
UNPARSEABLE_REASON = "cannot parse row 'abc,4': invalid literal for int() with base 10: 'abc'"


@pytest.mark.parametrize("source", ["--stdin", "--input"])
def test_stream_drops_an_unparseable_row(tmp_path, monkeypatch, capsys, source):
    path = tmp_path / "bad.csv"
    path.write_text(UNPARSEABLE_FEED)
    monkeypatch.setattr("sys.stdin", io.StringIO(UNPARSEABLE_FEED))
    argv = ["stream", "--stdin"] if source == "--stdin" else ["stream", "--input", str(path)]
    code, out, err = run_cli(argv + ["--refresh", "1", "--ratio", "1"], capsys)
    assert code == EXIT_OK
    assert f"warning: line 4: dropped ({UNPARSEABLE_REASON})" in err
    assert "(8 points, 5 refreshes)" in err
    assert len(out.splitlines()) == 5


# Line 3 holds a byte that is not UTF-8; every other row is fine.
UNDECODABLE_FEED = b"1,1\n2,3\n3,\xff3.0\n4,4\n5,1\n6,2\n7,5\n8,1\n9,2\n"


@pytest.mark.parametrize("source", ["--stdin", "--input"])
def test_stream_drops_a_row_that_is_not_utf8(tmp_path, monkeypatch, capsys, source):
    path = tmp_path / "bad.csv"
    path.write_bytes(UNDECODABLE_FEED)
    # A strict decoder, so the read itself does not forgive the byte.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(UNDECODABLE_FEED), encoding="utf-8"))
    argv = ["stream", "--stdin"] if source == "--stdin" else ["stream", "--input", str(path)]
    code, out, err = run_cli(argv + ["--refresh", "1", "--ratio", "1"], capsys)
    assert code == EXIT_OK, err
    assert "warning: line 3: dropped (cannot parse row '3,\\udcff3.0'" in err
    assert "(8 points, 5 refreshes)" in err
    assert len(out.splitlines()) == 5


def test_smooth_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(UNDECODABLE_FEED)
    code, out, err = run_cli(["smooth", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: line 3: cannot parse row '3,\\udcff3.0'")


def test_stream_unparseable_row_strict_aborts(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(UNPARSEABLE_FEED))
    code, _, err = run_cli(
        ["stream", "--stdin", "--refresh", "1", "--ratio", "1", "--strict"], capsys
    )
    assert code == EXIT_INPUT
    assert err == f"error: line 4: {UNPARSEABLE_REASON}\n"


def test_stream_out_of_order_strict_aborts(tmp_path, capsys):
    path = tmp_path / "ooo.csv"
    path.write_text("0,1.0\n1,2.0\n5,1.5\n4,2.5\n6,0.5\n")
    code, _, err = run_cli(
        ["stream", "--input", str(path), "--refresh", "1", "--strict"], capsys
    )
    assert code == EXIT_INPUT
    assert "line 4" in err and "out-of-order" in err


def test_stream_out_of_order_default_drops_and_continues(tmp_path, capsys):
    path = tmp_path / "ooo.csv"
    path.write_text("0,1.0\n1,2.0\n5,1.5\n4,2.5\n6,0.5\n")
    code, out, err = run_cli(["stream", "--input", str(path), "--refresh", "1"], capsys)
    assert code == EXIT_OK
    assert "warning" in err and "line 4" in err
    assert "(4 points, 1 refreshes)" in err


# Line 4 holds a nan value, line 7 a timestamp beyond int64.
BAD_ROWS_FEED = "timestamp,value\n" + "".join(
    f"{10**23 if i == 6 else i},{'nan' if i == 3 else i % 3}\n" for i in range(1, 12)
)


def test_stream_non_finite_value_default_drops_and_continues(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(BAD_ROWS_FEED))
    code, out, err = run_cli(["stream", "--stdin", "--ratio", "1", "--refresh", "2"], capsys)
    assert code == EXIT_OK
    assert "warning: line 4: dropped (non-finite value nan)" in err
    assert "warning: line 7: dropped (timestamp 100000000000000000000000 outside the int64 range)" in err
    assert "(9 points, " in err
    assert out.strip()  # the stream kept refreshing after the bad row


def test_stream_non_finite_value_strict_aborts(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(BAD_ROWS_FEED))
    code, out, err = run_cli(
        ["stream", "--stdin", "--ratio", "1", "--refresh", "2", "--strict"], capsys
    )
    assert code == EXIT_INPUT
    assert "error: line 4: non-finite value nan" in err
    assert out == ""



# Two finite values on lines 1 and 2 whose sum overflows one pane at --ratio 2.
OVERFLOW_FEED = "1,1e308\n2,1e308\n3,1\n4,1\n5,2\n6,1\n7,1\n8,3\n"


def test_stream_pane_sum_overflow_default_drops_and_continues(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(OVERFLOW_FEED))
    code, _, err = run_cli(["stream", "--stdin", "--ratio", "2", "--refresh", "1"], capsys)
    assert code == EXIT_OK
    assert "warning: line 2: dropped (pane sum overflows at value 1e+308)" in err
    assert "(7 points, " in err


def test_stream_pane_sum_overflow_strict_aborts(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(OVERFLOW_FEED))
    code, out, err = run_cli(
        ["stream", "--stdin", "--ratio", "2", "--refresh", "1", "--strict"], capsys
    )
    assert code == EXIT_INPUT
    assert "error: line 2: pane sum overflows at value 1e+308" in err
    assert out == ""

def test_bench_table_lists_every_strategy(capsys):
    code, out, _ = run_cli(
        ["bench", "--gen", "sine", "--gen-points", "4000", "--resolution", "400"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["strategy", "window", "roughness", "vs_exhaustive", "candidates", "ms"]
    body = {line.split()[0]: line.split() for line in lines[1:]}
    assert set(body) == {"asap", "exhaustive", "grid2", "grid10", "binary"}
    assert float(body["exhaustive"][3]) == pytest.approx(1.0)
    # The pruned search inspects strictly fewer candidates than the full scan.
    assert int(body["asap"][4]) < int(body["exhaustive"][4])



def test_bench_input_on_constant_series_ties_every_strategy(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{t},2.0\n" for t in range(50)))
    code, out, _ = run_cli(["bench", "--input", str(path)], capsys)
    assert code == EXIT_OK
    body = {line.split()[0]: line.split() for line in out.strip().splitlines()[1:]}
    assert set(body) == {"asap", "exhaustive", "grid2", "grid10", "binary"}
    # A zero exhaustive roughness: a strategy that matches it reads 1.0000.
    assert all(row[1:4] == ["1", "0", "1.0000"] for row in body.values())


def test_bench_input_too_short_is_input_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("1,1.0\n2,2.0\n")
    code, out, err = run_cli(["bench", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert "at least 4" in err
    assert out == ""

def test_bench_rejects_unknown_generator(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--gen", "nosuch"])
    capsys.readouterr()


def test_plot_writes_svg_overlay(sine_csv, tmp_path, capsys):
    out_path = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        ["plot", "--input", sine_csv, "--out", str(out_path), "--resolution", "600"], capsys
    )
    assert code == EXIT_OK
    root = ET.parse(out_path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "600"
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_plot_constant_input_still_renders(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("".join(f"{i},5.0\n" for i in range(16)))
    out_path = tmp_path / "flat.svg"
    code, _, _ = run_cli(["plot", "--input", str(path), "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    assert out_path.exists()


# Values users send: huge, subnormal, offset by 1e9 (tiny spread on a large
# mean), ordinary; constant runs come from repeating one.
FUZZ_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e-320, -1e-320, 1e9]),
    st.floats(-1e3, 1e3).map(lambda v: 1e9 + v),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Rows that are not points: corrupt, non-finite, and bytes that are not UTF-8.
FUZZ_BAD_ROWS = ["abc,1", "1,2,3", "2021-01-01T00:00:00Z", "1,", ",1", "1,nan", "1,-inf", "1,1e999",
                 "nan", "inf", "\x00", "\x1c1,2"]


@st.composite
def cli_csv_files(draw):
    """CSV bytes: a header or none, int-ms, ISO or single-column rows with
    duplicate stamps and constant runs, and corrupt, late and non-finite
    rows mixed in."""
    shape = draw(st.sampled_from(["ms", "iso", "single"]))
    lines = [draw(st.sampled_from([b"", b"timestamp,value\n", b"value\n"]))]
    t = draw(st.sampled_from([0, 1_609_459_200_000, 2**63 - 10**6]))
    # Half the files are clean, so the searches behind exit 0 run as often.
    kinds = ["point"] if draw(st.booleans()) else ["point"] * 12 + ["bad", "late", "undecodable"]
    for _ in range(draw(st.integers(0, 12))):
        value = draw(FUZZ_VALUES)
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(kinds))
            if kind == "bad":
                lines.append(draw(st.sampled_from(FUZZ_BAD_ROWS)).encode() + b"\n")
                continue
            if kind == "undecodable":
                lines.append(b"\xff\xfe,1\n")
                continue
            t += draw(st.sampled_from([0, 1, 1000]))  # 0: a duplicate stamp
            stamp = t - 5000 if kind == "late" else t
            if shape == "single":
                row = repr(value)
            elif shape == "ms":
                row = f"{stamp},{value!r}"
            else:
                when = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=stamp % 10**12)
                row = f"{when.isoformat(timespec='milliseconds')},{value!r}"
            lines.append(row.encode() + b"\n")
    return b"".join(lines)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # warnings, as in a user's run, not errors
@settings(max_examples=150, deadline=None)
@given(
    data=cli_csv_files(),
    resolution=st.sampled_from(["4", "7", "800"]),
    stream_flags=st.sampled_from([[], ["--ratio", "3"], ["--strict"]]),
)
def test_no_exception_escapes_the_cli(data, resolution, stream_flags, tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    path, svg = str(folder / "in.csv"), str(folder / "out.svg")
    with open(path, "wb") as fh:
        fh.write(data)
    for argv in (
        ["smooth", "--input", path, "--resolution", resolution],
        ["smooth", "--input", path, "--resolution", resolution, "--zscore"],
        ["stream", "--input", path, "--resolution", resolution, "--refresh", "1", *stream_flags],
        ["bench", "--input", path, "--resolution", resolution],
        ["plot", "--input", path, "--out", svg, "--resolution", resolution],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT), (argv, err.getvalue())
