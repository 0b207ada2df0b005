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
from asap.preagg import point_to_pixel_ratio, preaggregate
from asap.search import estimate_roughness, exhaustive_search, find_window
from asap.series import Series
from asap.smoothing import sma, smooth_series
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


def level_shift(n: int, seed: int, height: float, width: int) -> Series:
    """Standard normal noise with a step of `height` over `width` points,
    centred at 60% of the span: a long-term deviation of the kind the paper's
    users were asked to find. Kept out of `asap.generators.GENERATORS`, which
    the search tests and `asap bench --gen` iterate over."""
    values = np.random.default_rng(seed).normal(0.0, 1.0, n)
    start = int(0.6 * n) - width // 2
    values[start : start + width] += height
    return Series.from_values(values)


# Deviation cases: (background, height, width as a share of the span).
# "sine" adds a unit sine of 40 periods over the span to the noise.
DEVIATION_CASES = [
    (background, height, share)
    for background in ("noise", "sine")
    for height in (0.5, 1.0, 2.0)
    for share in (0.01, 0.05)
]
DEVIATION_POINTS = 40_000
DEVIATION_SEEDS = range(5)


def _shift_score(pixels: Series, window: int, first: int, end: int, ratio: int) -> tuple[float, bool, float]:
    """(prominence, on top, peak offset in px) of the raw points [first, end)
    in the line `window` draws over `pixels`, means of `ratio` points each.
    Prominence is the line's highest point among the averages that touch the
    shift, less the median elsewhere, over the std elsewhere. The shift is on
    top when that rise beats every other point's distance from the median.
    The offset is from where that highest point is drawn to the shift's
    centre, in pixels."""
    line = smooth_series(pixels, window)
    low = max(0, first // ratio - window + 1)
    high = min(len(line), -(-end // ratio))
    touching = line.values[low:high]
    elsewhere = np.concatenate([line.values[:low], line.values[high:]])
    median = float(np.median(elsewhere))
    rise = float(touching.max()) - median
    peak = low + int(np.argmax(touching))
    offset = abs(int(line.timestamps[peak]) - (first + end) / 2) / ratio
    return rise / float(np.std(elsewhere)), rise > float(np.abs(elsewhere - median).max()), offset


def deviation_scorecard(resolution: int) -> list[tuple[tuple, dict[str, tuple[int, float, bool, float]]]]:
    """For each case and seed, {"asap" | "exhaustive" | "raw": (window,
    prominence, on top, peak offset in px)} of the line `asap smooth` would
    draw at `resolution` pixels."""
    ratio = point_to_pixel_ratio(DEVIATION_POINTS, resolution)
    rows = []
    for background, height, share in DEVIATION_CASES:
        width = round(share * DEVIATION_POINTS)
        first = int(0.6 * DEVIATION_POINTS) - width // 2
        for seed in DEVIATION_SEEDS:
            raw = level_shift(DEVIATION_POINTS, seed, height, width)
            if background == "sine":
                phase = 2 * np.pi * 40 * raw.timestamps / DEVIATION_POINTS
                raw = Series(raw.timestamps, raw.values + np.sin(phase))
            pixels = preaggregate(raw, ratio)
            windows = {"asap": find_window(pixels).window, "exhaustive": exhaustive_search(pixels).window, "raw": 1}
            scores = {
                name: (window, *_shift_score(pixels, window, first, first + width, ratio))
                for name, window in windows.items()
            }
            rows.append(((background, height, share, seed), scores))
    return rows


def scorecard_line(rows) -> str:
    """Per line kind: median prominence, cases with the shift on top, and
    median peak offset."""
    parts = []
    for name in ("asap", "exhaustive", "raw"):
        scores = [row[name] for _, row in rows]
        parts.append(
            f"{name} prominence {statistics.median(s[1] for s in scores):.2f}, "
            f"on top {sum(s[2] for s in scores)}/{len(scores)}, "
            f"peak {statistics.median(s[3] for s in scores):.1f} px off"
        )
    return "; ".join(parts)


def test_criterion_12_level_shifts_stay_visible(capsys):
    rows = deviation_scorecard(800)
    below = [(case, row["asap"][1] / row["raw"][1]) for case, row in rows if row["asap"][1] < row["raw"][1]]
    wide_below = [(case, ratio) for case, ratio in below if case[2] == 0.05]
    ok = not wide_below
    narrow = ", ".join(f"{b} h={h} seed {seed} {ratio:.2f}x" for (b, h, _, seed), ratio in below)
    _report(
        capsys, 12, ok,
        f"{len(rows)} level shifts at 800 px: {scorecard_line(rows)}; "
        f"asap below raw on {len(below)} (none 5% wide allowed){': ' + narrow if narrow else ''}",
    )
    assert ok, wide_below
