"""Runs one workload in this process; started by run.py, one process per run.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

``--probe`` imports ges4 and ges4.cli, makes the workload's first call and
prints ``ready``, which run.py times from process start; then it prints the
factor that scales that time to the reference speed (see pace.py).
Otherwise the worker warms up with the same first call, runs whole rounds of
operations for ``--seconds``, timing each call into the program and checking
its output outside the timed region, and prints one JSON line. With
``--trace 1`` it runs a fixed number of rounds untraced and then the same
rounds under the span recorder, reports per-operation layer metrics and
writes the spans to ``.bench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pace     # noqa: E402  (after the path set-up; imports numpy)


class Tally:
    """Operations attempted and failed, and every call's timing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.calls = []           # (busy seconds, operations that succeeded, start, end)
        self.out_bytes = 0

    @property
    def busy_s(self) -> float:
        return sum(call[0] for call in self.calls)


def run_op(workload, inp, tally: Tally, recorder=None, pacer=None) -> None:
    """Time one call into ges4, then check its output outside the timing."""
    units = workload.units(inp)
    tally.attempted += units
    if recorder is not None:
        recorder.op += 1
        recorder.enabled = True
    paused = 0.0
    if pacer is not None:
        paused = pacer.paused_s
        pacer.begin_call()
    t0 = time.perf_counter()
    try:
        raw = workload.call(inp)
        ok = True
    except Exception:
        ok = False
        traceback.print_exc(file=sys.stderr)
    finally:
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.enabled = False
    if pacer is not None:
        paused = pacer.paused_s - paused
        pacer.end_call()
    if not ok:
        tally.calls.append((t1 - t0 - paused, 0, t0, t1))
        tally.failed += units
        return
    try:
        tally.out_bytes += workload.out_bytes(inp)
        bad, problems = workload.check(inp, raw)
    except Exception as exc:
        bad, problems = units, [f"output could not be checked: {exc!r}"]
    tally.calls.append((t1 - t0 - paused, units - bad, t0, t1))
    if bad:
        tally.failed += bad
        tally.wrong = True
        print(f"{workload.name}: {bad} of {units} failed: {problems[:3]}", file=sys.stderr)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_run(workload, seed: int, seconds: float) -> tuple:
    """Whole rounds for ``seconds``, times scaled to the reference speed.

    A sample is ``workload.sample_calls`` consecutive calls, which keeps the
    single-shot request mix whole. Each sample's times are scaled by the
    pacer's reading around it (see pace.py). Throughput is the median of the
    samples' scaled rates, latency the median scaled call time.
    """
    rng = random.Random(seed)
    tally = Tally()
    start = time.perf_counter()
    with pace.Pacer() as pacer:
        while time.perf_counter() - start < seconds:
            for inp in workload.make_round(rng):
                run_op(workload, inp, tally, pacer=pacer)
    k = workload.sample_calls
    rates, latencies = [], []
    for i in range(0, len(tally.calls), k):
        sample = tally.calls[i:i + k]
        scale = pacer.scale(sample[0][2], sample[-1][3])
        rates.append(sum(c[1] for c in sample) / (sum(c[0] for c in sample) * scale))
        latencies += [c[0] * scale * 1e3 for c in sample]
    measured = {
        "throughput_per_s": (tally.attempted - tally.failed) / tally.busy_s,
        "latency_p50_ms": statistics.median(c[0] for c in tally.calls) * 1e3,
        "pace_ms": statistics.median(t for _, t in pacer.ticks) * 1e3,
        "pace_reference_ms": pace.REFERENCE_S * 1e3,
    }
    return tally, {
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
    }, measured


def traced_run(workload, seed: int, seconds: float) -> tuple:
    """The same fixed rounds untraced, then traced; per-operation layer metrics.

    The round count depends only on ``seconds``, so two traced runs with
    the same arguments make the same calls.
    """
    from spans import SpanRecorder

    rng = random.Random(seed)
    n_rounds = max(1, round(seconds / (2 * workload.nominal_round_s)))
    inputs = [inp for _ in range(n_rounds) for inp in workload.make_round(rng)]
    untraced = Tally()
    for inp in inputs:
        run_op(workload, inp, untraced)
    recorder = SpanRecorder()
    recorder.install()
    tally = Tally()
    try:
        for inp in inputs:
            run_op(workload, inp, tally, recorder)
    finally:
        recorder.uninstall()
    recorder.write(OUT / f"spans-{workload.name}.jsonl")
    n = tally.attempted
    metrics = recorder.metrics(n)
    metrics["cli.out_bytes"] = (tally.out_bytes / n, "bytes")
    metrics["trace.overhead_ms"] = ((tally.busy_s - untraced.busy_s) * 1e3 / n, "ms")
    tally.failed += untraced.failed
    tally.attempted += untraced.attempted
    tally.wrong |= untraced.wrong
    return tally, metrics, {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    import ges4            # noqa: F401  (import time is part of set-up)
    import ges4.cli        # noqa: F401
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](OUT)
    warm_rng = random.Random(f"warm-up {args.seed}")
    workload.first_call(warm_rng)
    if args.probe:
        print("ready", flush=True)
        pace.task_seconds()
        runs = [pace.task_seconds() for _ in range(20)]
        print(pace.REFERENCE_S / statistics.fmean(runs), flush=True)
        return 0

    run = traced_run if args.trace else timed_run
    tally, metrics, measured = run(workload, args.seed, args.seconds)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "calls": len(tally.calls),
        "measured": measured,
        "latency_p99_ms": (statistics.quantiles([c[0] * 1e3 for c in tally.calls], n=100)[98]
                           if len(tally.calls) >= 1000 else None),
        "environment": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
