"""Benchmark for `weyrlab verify` and `weyrlab analyze`; run from the repository root.

    python3 bench/run.py --workload bounds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Each workload runs in a fresh single-threaded interpreter (bench/workload.py),
one at a time.  Set-up time is the time from starting that interpreter to its
first op; it is taken over several fresh interpreters and reported as the
median.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass over the same ops.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bounds", "weyr", "analyze")
SETUP_SAMPLES = 5
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# A run must end within 180 s; the workers share this budget.
RUN_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    # Set-up time includes compiling weyrlab's modules on every start.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Run workload.py; return (seconds from its start to its first op, its final JSON or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # CLOCK_MONOTONIC is one clock for every process on the machine; the
    # worker prints its reading just before its first op.
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 0.001))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"{workload} worker failed with exit code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - start
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_TIMEOUT_S
    if trace:
        _, result = run_child(workload, seed, seconds, 1, False, deadline)
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in result["metrics"].items()}
    else:
        setups = [run_child(workload, seed, seconds, 0, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_child(workload, seed, seconds, 0, False, deadline)
        setups.append(setup_s)
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    print(f"{workload}: {json.dumps(result['extra'])}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name == "gaussian_roots.evals_per_root":
        return "evals/root"
    if name == "tracing.overhead":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_child stops its worker before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join("src", "weyrlab")):
        print("error: run from the repository root (src/weyrlab not found)", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            res = run_workload(workload, args.seed, args.seconds, args.trace)
            print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
                total["metrics"][f"{workload}.{name}"] = m
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
        print(json.dumps(total))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
