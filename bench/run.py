"""ges4 benchmark: one workload per call, or all three with ``--workload all``.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Run from the root of a ges4 checkout; the package is imported from ``src/``
without installing it. This file uses only the standard library. It times
three fresh processes that import ges4 and make the workload's first
call (``setup_s``, their median), then starts one worker process that warms
up and measures for ``--seconds``. Every child runs single-threaded: BLAS and
OpenMP threads are fixed at 1 through the children's environment. Times are
scaled to a reference machine speed (see pace.py and README.md). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). The lines before it name the workload's
metrics and record the Python, numpy and BLAS versions and the CPU count.
See README.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("sweep-grid", "verify-suite", "single-shot")
TIMEOUT_S = 170.0
PROBES = 3           # fresh processes timed per run; setup_s is their median

# What each generic metric means on each workload, for the readable lines.
NAMES = {
    "sweep-grid": {"throughput_per_s": "sweep.points_per_s",
                   "latency_p50_ms": "sweep.call_p50_ms"},
    "verify-suite": {"throughput_per_s": "verify.reports_per_s",
                     "latency_p50_ms": "verify.report_ms"},
    "single-shot": {"throughput_per_s": "single_shot.requests_per_s",
                    "latency_p50_ms": "single_shot.latency_p50_ms"},
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker_argv(workload: str, seed: int, seconds: float, trace: int) -> list:
    return [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]


def probe(workload: str, seed: int, deadline: float) -> tuple:
    """Seconds from starting a fresh process to its first call's return,
    measured and scaled to the reference speed (see pace.py)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_argv(workload, seed, 0.0, 0) + ["--probe"],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe of {workload} failed (exit {proc.returncode})")
    return elapsed, elapsed * float(rest)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    setups = [probe(workload, seed, deadline) for _ in range(0 if trace else PROBES)]
    proc = subprocess.Popen(worker_argv(workload, seed, seconds, trace), cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if setups:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(scaled for _, scaled in setups), "unit": "s"}
        result["measured"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    return result


def describe(workload: str, result: dict) -> list:
    env = result["environment"]
    lines = [f"# {workload}: python {env['python']}, numpy {env['numpy']}, "
             f"blas {env['blas']}, cpu_count {env['cpu_count']}, "
             f"blas threads {env['blas_threads']}",
             f"# {workload}: {result['attempted']} operations attempted, "
             f"{result['failed']} failed, {result['calls']} calls timed"]
    names = NAMES[workload]
    measured = result["measured"]
    for name, m in result["metrics"].items():
        line = f"{workload} {names.get(name, name)} = {m['value']:.6g} {m['unit']}"
        if name in measured:
            line += f" (measured {measured[name]:.6g})"
        lines.append(line)
    if "pace_ms" in measured:
        lines.append(f"# {workload}: calibration task median {measured['pace_ms']:.4g} ms, "
                     f"scaled to {measured['pace_reference_ms']:.4g} ms")
    if result.get("latency_p99_ms") is not None:
        lines.append(f"{workload} latency_p99_ms = {result['latency_p99_ms']:.6g} ms "
                     f"(measured, unscaled, n={result['calls']})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ges4" / "__init__.py").is_file():
        print(f"error: no ges4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(describe(name, results[name])), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
