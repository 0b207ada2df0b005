"""The benchmark's traced run patches program functions by name; every name
it wraps must exist, and leaving the tracer must put each original back."""
import importlib
import sys
from pathlib import Path

import pytest

import asap.cli
import asap.stream
from asap.generators import noisy_sine
from asap.io import write_series

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_every_boundary_resolves_and_is_restored(tracing):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracing.BOUNDARIES]
    with tracing.Tracer():
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, f"{attr} not wrapped"
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{attr} not restored"


def test_traced_searches_record_their_notes(tracing):
    series = noisy_sine(2000, period=50, seed=3)
    stream = asap.stream.StreamState(pane_span=1, capacity=2000, refresh_interval=2000, max_window=40)
    with tracing.Tracer() as tracer:
        capped = asap.cli.STRATEGIES["asap"](series, 40)
        for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
            stream.ingest(t, v)
        refreshed = stream.maybe_refresh()
    searches = [s for s in tracer.spans if s.name.endswith(".find_window")]
    assert [s.note[0] for s in searches] == [capped.candidates_evaluated, refreshed.candidates_evaluated]
    assert refreshed.window == capped.window


def _boundary_name(owner, attr):
    """The span name the tracer gives a wrapped name."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def test_the_wrapped_names_the_program_no_longer_calls_are_pinned(tracing, tmp_path, capsys):
    # A per-layer metric reads 0 for a wrapped name nothing calls, so a
    # change that stops calling one shows here rather than as a silent 0.
    csv = tmp_path / "sine.csv"
    with open(csv, "w", encoding="utf-8") as fh:
        write_series(noisy_sine(3000, period=60, seed=1), fh)
    series = noisy_sine(4000, period=50, seed=2)
    stream = asap.stream.StreamState(5, 400, 10)
    refreshes = 0
    with tracing.Tracer() as tracer:
        assert asap.cli.main(["smooth", "--input", str(csv), "--meta", str(tmp_path / "meta.json")]) == 0
        tracing.wl.find_window(tracing.wl.preaggregate(series, 4))
        for t, v in zip(series.timestamps.tolist(), series.values.tolist()):
            stream.ingest(t, v)
            refreshes += stream.maybe_refresh() is not None
    capsys.readouterr()
    recorded = {s.name for s in tracer.spans}
    silent = {_boundary_name(owner, attr) for owner, attr, *_ in tracing.BOUNDARIES} - recorded
    assert silent == {"asap.search.smooth_series"} | {
        f"asap.stream.{name}" for name in ("autocorrelation", "find_peaks", "kurtosis", "roughness", "sma")
    }
    # One check_last_window span per refresh, inside that refresh.
    refresh_ids = {s.id for s in tracer.spans if s.name.endswith(".maybe_refresh")}
    checks = [s for s in tracer.spans if s.name.endswith(".check_last_window")]
    assert refreshes > 50 and len(refresh_ids) == len(checks) == refreshes
    assert {s.parent for s in checks} == refresh_ids
