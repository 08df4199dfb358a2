#!/usr/bin/env python3
"""End-to-end benchmark of the SLAM KDV library (see perfbench/README.md).

    python3 perfbench/run.py --workload export|pan_zoom|time_slider \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the benchmark package (the library
from src/ plus the drivers in perfbench/src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
timed driver (--trace 0: end-to-end metrics) or the traced driver
(--trace 1: per-layer metrics). Build output goes to stderr; the last line
of stdout is the result JSON. --self-test builds and runs the benchmark's
own unit tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets: list[str]) -> str:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time is cheap once cached, and recovers a build
    # directory left behind by an interrupted configure.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["export", "pan_zoom", "time_slider"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_test"])
        return subprocess.call([os.path.join(out, "perfbench_test")])
    if args.workload is None:
        parser.error("--workload is required")

    driver = "perfbench_traced" if args.trace else "perfbench_timed"
    out = build([driver])
    work_dir = os.path.join(out, "work")
    os.makedirs(work_dir, exist_ok=True)
    return subprocess.call([
        os.path.join(out, driver), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
