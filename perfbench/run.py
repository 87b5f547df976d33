#!/usr/bin/env python3
"""Build and run the agua repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the agua libraries plus the agua_perfbench harness)
into .bench_build/perfbench; later calls only rebuild what changed. The last
line of stdout is the harness's JSON result; build output and progress go to
stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pipeline_abr", "explain_offline", "serve_sparse", "serve_mixed")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS_TIMEOUT_S = 170


def build():
    """Configure once, then build the harness; returns its path."""
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "agua_perfbench", "-j4"],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "agua_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"agua sources not found under {ROOT}", file=sys.stderr)
        return 2

    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(harness), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"harness exceeded {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"harness exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])  # the harness's result must parse
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
