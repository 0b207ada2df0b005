"""End-to-end checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible even with captured output)
so a `pytest -v` run doubles as a scorecard. Fixture seeds are pinned; every
expected value is either closed form or cross-checked against the exhaustive
scan / direct-sum oracles also used by the module tests.
"""
import math
import statistics
import time

import numpy as np
import pytest

from _oracles import direct_acf
from asap.acf import autocorrelation
from asap.generators import (
    gaussian,
    laplace,
    noisy_sine,
    spike_in_noise,
    trend_seasonal,
    uniform,
)
from asap.metrics import kurtosis, population_std, roughness
from asap.preagg import preaggregate
from asap.search import estimate_roughness, exhaustive_search, find_window
from asap.smoothing import sma
from asap.stream import StreamState

RESOLUTION = 1200

# (aggregated period, amplitude, noise, seed); raw period is 50x because the
# 60k-point series aggregate 50:1 into 1200 pixels.
SINE_SPECS = [
    (24, 1.0, 0.30, 100),
    (32, 1.0, 0.50, 101),
    (48, 2.0, 0.60, 102),
    (60, 1.0, 0.30, 103),
    (96, 1.0, 0.50, 104),
    (40, 1.5, 0.45, 105),
    (36, 1.0, 0.25, 106),
    (48, 1.0, 0.40, 107),
    (72, 2.0, 0.80, 108),
    (30, 1.0, 0.35, 109),
    (54, 1.2, 0.50, 110),
]

# (aggregated period, slope, amplitude, noise, seed)
TREND_SPECS = [
    (48, 0.00005, 1.0, 0.30, 200),
    (36, 0.00002, 1.5, 0.25, 201),
    (60, 0.00002, 1.0, 0.25, 202),
    (24, 0.00003, 1.2, 0.30, 203),
    (96, 0.00004, 1.0, 0.35, 204),
]


def _report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")


def _pixel_datasets():
    """24 fixtures spanning periodic, trending, spiky, and IID shapes, all
    preaggregated to the pixel budget the way the CLI would."""
    datasets = []
    for p, amp, noise, seed in SINE_SPECS:
        raw = noisy_sine(60_000, period=50 * p, amplitude=amp, noise=noise, seed=seed)
        datasets.append(("sine", preaggregate(raw, 50)))
    for p, slope, amp, noise, seed in TREND_SPECS:
        raw = trend_seasonal(
            60_000, period=50 * p, slope=slope, amplitude=amp, noise=noise, seed=seed
        )
        datasets.append(("trend", preaggregate(raw, 50)))
    for seed in (300, 301, 302, 303):
        datasets.append(("spike", preaggregate(spike_in_noise(2400, seed=seed), 2)))
    datasets.append(("iid", preaggregate(gaussian(6000, seed=402), 5)))
    datasets.append(("iid", preaggregate(laplace(6000, seed=405), 5)))
    datasets.append(("iid", preaggregate(uniform(2400, seed=502), 2)))
    datasets.append(("iid", preaggregate(uniform(6000, seed=403), 5)))
    return datasets


@pytest.fixture(scope="module")
def pixel_results():
    """find_window vs exhaustive on every pixel-scale dataset, computed once."""
    records = []
    started = time.perf_counter()
    for kind, series in _pixel_datasets():
        max_window = len(series) // 10
        fast = find_window(series, max_window=max_window)
        full = exhaustive_search(series, max_window=max_window)
        records.append((kind, series, fast, full))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_01_window_matches_exhaustive(pixel_results, capsys):
    records, elapsed = pixel_results
    total = len(records)
    mismatch_ratios = []
    matches = 0
    for _, series, fast, full in records:
        if fast.window == full.window:
            matches += 1
        else:
            mismatch_ratios.append(fast.roughness / full.roughness)

    near_ok = all(r <= 1.05 for r in mismatch_ratios)
    ok = total == 24 and matches >= 0.9 * total and near_ok and elapsed < 60.0
    worst = max(mismatch_ratios, default=1.0)
    _report(
        capsys, 1, ok,
        f"window search matches the full scan on {matches}/{total} fixtures "
        f"(worst mismatch roughness ratio {worst:.3f}, suite {elapsed:.1f}s)",
    )
    assert ok, (matches, total, mismatch_ratios, elapsed)


def test_criterion_02_pruning_rate_on_periodic_data(pixel_results, capsys):
    records, _ = pixel_results
    periodic = [(f, e) for kind, _, f, e in records if kind in ("sine", "trend")]
    fast_total = sum(f.candidates_evaluated for f, _ in periodic)
    full_total = sum(e.candidates_evaluated for _, e in periodic)
    rate = full_total / fast_total
    ok = len(periodic) == 16 and rate >= 5.0
    _report(
        capsys, 2, ok,
        f"periodic fixtures need {fast_total} candidate evaluations vs "
        f"{full_total} exhaustive ({rate:.1f}x fewer)",
    )
    assert ok, (fast_total, full_total, rate)


def test_criterion_03_roughness_law_on_gaussian_noise(capsys):
    worst = 0.0
    for seed in (1, 2, 3):
        x = gaussian(100_000, seed=seed).values
        sigma = population_std(x)
        for w in (2, 5, 10, 50):
            want = math.sqrt(2.0) * sigma / w
            got = roughness(sma(x, w))
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 0.10
    _report(
        capsys, 3, ok,
        f"sliding means of white noise follow sqrt(2)*sigma/w within "
        f"{worst * 100:.2f}% (allowed 10%)",
    )
    assert ok, worst


def test_criterion_04_kurtosis_law_on_uniform_noise(capsys):
    x = uniform(1_000_000, seed=4).values
    worst = 0.0
    for w in (2, 4, 8):
        worst = max(worst, abs(kurtosis(sma(x, w)) - (3.0 - 1.2 / w)))
    ok = worst <= 0.1
    _report(
        capsys, 4, ok,
        f"kurtosis of w-means of uniform noise lands within {worst:.3f} "
        f"of 3 - 1.2/w (allowed 0.1)",
    )
    assert ok, worst


def test_criterion_05_roughness_estimate_at_the_period(capsys):
    configs = [
        (4000, 50, 0.50, 11),
        (4000, 80, 0.60, 12),
        (6000, 100, 0.50, 13),
        (3000, 40, 0.45, 14),
        (4800, 60, 0.55, 15),
    ]
    worst = 0.0
    for n, period, noise, seed in configs:
        x = noisy_sine(n, period=period, noise=noise, seed=seed).values
        corr = autocorrelation(x, period + 1)
        est = estimate_roughness(population_std(x), n, period, float(corr[period]))
        true = roughness(sma(x, period))
        worst = max(worst, abs(est - true) / true)
    ok = worst <= 0.05
    _report(
        capsys, 5, ok,
        f"closed-form roughness estimate at the period is within "
        f"{worst * 100:.2f}% of the measured value (allowed 5%)",
    )
    assert ok, worst


def test_criterion_06_preaggregation_penalty_bound(capsys):
    # Seeds cover the on-grid case (penalty exactly 1), the off-grid case
    # (optimum between grid points), and a near-boundary case.
    outcomes = []
    for n, seed in ((2000, 22), (2000, 13), (2000, 47), (5000, 32)):
        raw = uniform(n, seed=seed)
        ratio = n // 100
        w_opt = exhaustive_search(raw, max_window=n // 10).window
        agg = preaggregate(raw, ratio)
        w_a = find_window(agg, max_window=len(agg) // 10).window
        penalty = roughness(sma(raw.values, w_a * ratio)) / roughness(sma(raw.values, w_opt))
        bound = (w_a + 1) / w_a
        outcomes.append((penalty, bound))
    ok = all(p <= b for p, b in outcomes)
    shown = ", ".join(f"{p:.3f}<={b:.3f}" for p, b in outcomes)
    _report(
        capsys, 6, ok,
        f"searching the pixel aggregate costs at most (w+1)/w in roughness ({shown})",
    )
    assert ok, outcomes


def test_criterion_07_speed(capsys):
    big = uniform(1_000_000, seed=7)
    started = time.perf_counter()
    plan_ratio = max(1, len(big) // 800)
    agg = preaggregate(big, plan_ratio)
    find_window(agg)
    big_elapsed = time.perf_counter() - started

    s = noisy_sine(100_000, period=10_000, noise=0.4, seed=20)
    started = time.perf_counter()
    find_window(preaggregate(s, max(1, len(s) // 800)))
    fast_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    # Full scan on the raw series, with the window range capped at 1000 to
    # keep the baseline merely slow instead of absurd; the cap only makes
    # the measured speedup smaller.
    exhaustive_search(s, max_window=1000)
    slow_elapsed = time.perf_counter() - started

    speedup = slow_elapsed / fast_elapsed
    ok = big_elapsed < 1.0 and speedup >= 100.0
    _report(
        capsys, 7, ok,
        f"1M points smooth in {big_elapsed * 1000:.0f}ms (budget 1s); pruned "
        f"pixel-scale search beats the raw full scan {speedup:.0f}x (needed 100x)",
    )
    assert ok, (big_elapsed, speedup)


def test_criterion_08_refresh_interval_scales_throughput(capsys):
    series = noisy_sine(500_000, period=4000, noise=0.4, seed=9)
    ts = series.timestamps.tolist()
    vs = series.values.tolist()

    def rate(interval):
        # CPU time of this process, so stalls caused by other processes on a
        # shared machine do not land on one side of the ratio.
        st = StreamState(pane_span=100, capacity=1200, refresh_interval=interval)
        started = time.process_time()
        for t, v in zip(ts, vs):
            st.ingest(t, v)
            st.maybe_refresh()
        return len(vs) / (time.process_time() - started)

    # Median of five interleaved pairs: two slow stretches move two pairs only.
    ratio = statistics.median(rate(4) / rate(2) for _ in range(5))
    ok = 1.5 <= ratio <= 2.5
    _report(
        capsys, 8, ok,
        f"doubling the refresh interval speeds streaming {ratio:.2f}x "
        f"(expected between 1.5x and 2.5x)",
    )
    assert ok, ratio


def test_criterion_09_spikes_are_never_averaged_away(capsys):
    ok = True
    for seed in (300, 301):
        s = spike_in_noise(2000, seed=seed)
        fast = find_window(s)
        full = exhaustive_search(s)
        ok = ok and fast.window == 1 and full.window == 1
        ok = ok and float(fast.smoothed.values.max()) == 10.0
    _report(
        capsys, 9, ok,
        "series whose kurtosis lives in one spike are passed through untouched "
        "(window 1, spike at full height)",
    )
    assert ok


def test_criterion_10_fft_acf_agrees_with_direct_sums(capsys):
    rng = np.random.default_rng(1000)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(16, 4097))
        if i % 3 == 0:
            x = rng.normal(size=n)
        elif i % 3 == 1:
            x = np.cumsum(rng.normal(size=n))
        else:
            period = int(rng.integers(4, max(5, n // 4) + 1))
            x = np.sin(2 * np.pi * np.arange(n) / period) + rng.normal(0.0, 0.3, n)
        got = autocorrelation(x, n - 1)
        want = direct_acf(x, n - 1)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-6
    _report(
        capsys, 10, ok,
        f"FFT autocorrelation agrees with O(N^2) sums on 100 series "
        f"(worst |diff| {worst:.2e}, allowed 1e-6)",
    )
    assert ok, worst


def test_criterion_11_stream_refresh_equals_batch_answer(capsys):
    raw = noisy_sine(48_000, period=1600, noise=0.35, seed=10)
    ratio = 40
    st = StreamState(pane_span=ratio, capacity=1200, refresh_interval=1200)
    final = None
    for t, v in zip(raw.timestamps.tolist(), raw.values.tolist()):
        st.ingest(t, v)
        result = st.maybe_refresh()
        if result is not None:
            final = result

    batch = find_window(preaggregate(raw, ratio))
    ok = (
        final is not None
        and final.window == batch.window
        and math.isclose(final.roughness, batch.roughness, rel_tol=1e-9)
    )
    got = final.window if final else None
    _report(
        capsys, 11, ok,
        f"one full pane cycle of streaming picks window {got}, identical to "
        f"the batch answer {batch.window}",
    )
    assert ok, (got, batch.window)
