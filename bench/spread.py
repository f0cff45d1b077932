"""Run-to-run spread of the end-to-end metrics; run from the repository root.

    python3 bench/spread.py --workload bounds --runs 10 --first-seed 1 --seconds 20

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) and prints,
for each metric, the median, the quartiles from statistics.quantiles(n=4),
and the spread (Q3 - Q1) / median, next to the bound in BENCHMARK.json.
The share of failed ops must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed the checks", file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
    print(f"{'metric':14s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:14s} {med:11.4f} {q1:11.4f} {q3:11.4f} {(q3 - q1) / med:7.3f} {bounds.get(name, 0):6.2f}")
    print(f"failed shares seen: {sorted(shares, key=str)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
