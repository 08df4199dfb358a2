#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload pan_zoom --seeds 1-10

Runs perfbench/run.py once per seed (--trace 0, BENCHMARK.json's
run_seconds) and prints, per end-to-end metric, the median of the runs and
the interquartile spread (q3 - q1) / median, with quartiles from
statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        median = statistics.median(v)
        if len(v) >= 2 and median:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / median
        else:
            spread = 0.0
        print(f"{name:32} {median:12.6g} {spread:8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
