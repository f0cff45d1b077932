"""One workload in one fresh interpreter; started by run.py.

Imports weyrlab from the checkout's src/, builds the seeded inputs and
prints `ready <CLOCK_MONOTONIC reading>` just before the first op.  It then
runs the fixed op list once, and again while another whole round fits in
--seconds.  Each op is one in-process call of `weyrlab.cli.main` with its
output captured.  Peak RSS is read before the checks import SymPy.  The
last line of output is a JSON object for run.py.

With --setup-only it stops after `ready`.  With --trace 1 it runs the list
once untraced and once traced, and reports per-layer figures instead of
timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import weyrlab.cli  # noqa: E402

from inputs import build_ops  # noqa: E402

OUT_DIR = ".bench_out"
OVERHEAD_STRIDE = 5


def run_op(op) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Looked up on each call, so the traced pass goes through the wrapper.
            rc = weyrlab.cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed op
        rc = f"{type(exc).__name__}: {exc}"
        print(f"{op.argv}: {rc}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    if err.getvalue():
        print(f"{op.argv}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


def run_round(ops, latencies, before_op=None):
    results = []
    for op in ops:
        if before_op:
            before_op()
        rc, out, elapsed = run_op(op)
        latencies.append(elapsed)
        results.append((rc, out))
    return results


def timed(ops, seconds):
    """Whole rounds of the op list: one, then more while another fits in `seconds`."""
    latencies: list[float] = []
    start = time.perf_counter()
    results = run_round(ops, latencies)
    round_ends = [time.perf_counter()]
    first_round = round_ends[0] - start
    while round_ends[-1] - start + first_round <= seconds:
        run_round(ops, latencies)
        round_ends.append(time.perf_counter())
    wall = round_ends[-1] - start
    metrics = {
        "ops_per_s": len(latencies) / wall,
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "op_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
    }
    round_s = [b - a for a, b in zip([start] + round_ends, round_ends)]
    return results, metrics, round_s, len(latencies)


def traced(ops, workload, seed):
    from spans import SELF_TIME_NAMES, Tracer

    # Every OVERHEAD_STRIDE-th op is also run untraced, before the wrappers go
    # in, to measure the tracing overhead without doubling the run.
    sample = range(0, len(ops), OVERHEAD_STRIDE)
    untraced: list[float] = []
    run_round([ops[i] for i in sample], untraced)
    tracer = Tracer()
    tracer.install()
    latencies: list[float] = []
    results = run_round(ops, latencies, tracer.begin_op)
    untraced_s = sum(untraced)
    traced_s = sum(latencies[i] for i in sample)
    n = len(ops)
    calls = {**tracer.counts, **tracer.calls}
    self_ms = {name: v * 1e3 / n for name, v in tracer.self_s.items()}
    metrics = {f"{name}.calls": v / n for name, v in calls.items()}
    metrics.update({f"{name}.self_ms": self_ms[name] for name in SELF_TIME_NAMES})
    metrics.update({f"{name}.repeat_calls": v / n for name, v in tracer.repeats.items()})
    metrics["gaussian_roots.evals_per_root"] = tracer.root_evals / max(tracer.roots_found, 1)
    metrics["tracing.overhead"] = traced_s / untraced_s
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-s{seed}.tsv"))
    summary = {
        "ops": n,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.span_ids),
        "missing": tracer.missing,
        "calls_per_op": {k: v / n for k, v in calls.items()},
        "self_ms_per_op": self_ms,
        "root_evals": tracer.root_evals,
        "roots_found": tracer.roots_found,
    }
    with open(os.path.join(OUT_DIR, f"layers-{workload}-s{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if tracer.missing:
        print(f"trace: missing names {tracer.missing}", file=sys.stderr)
    return results, metrics, {"untraced_s": untraced_s, "traced_s": traced_s, "missing": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = build_ops(args.workload, args.seed, os.path.join(OUT_DIR, f"inputs-{args.workload}-s{args.seed}"))
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        results, metrics, extra = traced(ops, args.workload, args.seed)
        attempted = len(ops)
    else:
        results, metrics, round_s, attempted = timed(ops, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = {"round_s": round_s}
    failed_per_round = sum(1 for rc, _ in results if rc != 0)
    failed = failed_per_round * attempted // len(ops)

    import checks

    refs = checks.references(ops)
    problems = []
    for op, (rc, out) in zip(ops, results):
        if rc == 0:
            problems += [f"{' '.join(op.argv)}: {p}" for p in checks.check(op, rc, out, refs)]
    problems += checks.self_test(ops, results, refs)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
