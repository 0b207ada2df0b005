"""asap-smooth benchmark: one workload per run, or all three in turn.

    python3 benchmarks/run.py --workload smooth-csv --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py            # every workload, end-to-end metrics

Run it from the root of a checkout; it imports asap from ./src and writes only
under benchmarks/_work/. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run. Human-readable lines
come first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"
PINNED = BENCH / "pinned.json"  # outputs of the seed commit for the default seed
WORKLOAD_NAMES = ("smooth-csv", "search-corpus", "stream-replay")
DEFAULT_SEED = 1


def run_seconds() -> int:
    """The run length BENCHMARK.json states, which the reference runs in
    BENCH_seed.json used too: the default for --seconds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


# The machine has few cores: keep BLAS pools to one thread in this process and
# in the CLI processes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_program() -> None:
    """Put ./src first on the path and fail unless asap really comes from it."""
    package = SRC / "asap"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import asap

    if Path(asap.__file__).resolve().parent != package:
        sys.exit(f"error: imported asap from {asap.__file__}, expected {package}")


def read_git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, fixture: dict) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": read_git_sha(),
        "seed": seed,
        "fixture": fixture,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    ctx = workloads.Context(
        root=ROOT, src=SRC, workdir=WORKDIR, seed=seed, seconds=seconds,
        import_s=time.perf_counter() - STARTED,
        pinned=pins[name] if seed == pins["seed"] else None,
    )
    if trace:
        import tracing

        tracer = tracing.Tracer()
        outcome = tracing.TRACED[name](ctx, tracer)
        tracer.write(WORKDIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        outcome = workloads.WORKLOADS[name](ctx)

    tally = outcome.tally
    env = environment(seed, outcome.fixture)
    print(f"# {name} seed={seed} trace={int(trace)} " + json.dumps(env, sort_keys=True))
    for line in outcome.report:
        print(f"{name}: {line}")
    print(f"{name}: error_rate = {tally.failed / max(1, tally.attempted):.3g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"{name}: FAILED {problem}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in outcome.metrics.items()},
    }
    record = dict(result, workload=name, trace=int(trace), environment=env, observed=outcome.observed,
                  report=outcome.report)
    (WORKDIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, one after the other, so each one's
    peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        import_program()
        WORKDIR.mkdir(exist_ok=True)
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
