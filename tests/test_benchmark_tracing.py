"""The benchmark's traced run patches program functions by name; every name
it wraps must exist, and leaving the tracer must put each original back."""
import importlib
import sys
from pathlib import Path

import pytest

import asap.cli
import asap.stream
from asap.generators import noisy_sine

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
