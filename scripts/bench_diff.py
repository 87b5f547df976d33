#!/usr/bin/env python3
"""Compare a git ref with the work tree on the repository benchmark.

    scripts/bench_diff.py REF [--workloads W,...] [--seeds 1,4] [--pairs 10]
                              [--trace 0|1] [--json PATH]

Extracts REF with `git archive` into a temporary directory and runs each
side's own perfbench/run.py (the work tree runs in place) for BENCHMARK.json's
run_seconds. The two sides alternate run by run, and the side that goes first
alternates from pair to pair. Each run records the host's CPU steal over the
run (from /proc/stat), its output checks and, on the serving workloads, the
generator's late p99.

For every workload and end-to-end metric in BENCHMARK.json it prints both
sides' medians and quartiles, the pairs each side won (ties count for
neither) and a verdict:

  better        the change wins at least 9 in 10 pairs and the medians differ
                by more than the parent's interquartile range
  worse         the parent wins at least 9 in 10 pairs and the change's median
                is worse by more than the metric's BENCHMARK.json bound
  within bound  the change's median is no worse than the bound allows and the
                parent's spread is inside the bound (or every change run beats
                every parent run)
  unresolved    anything else: the runs spread too widely to tell

A run that prints no result counts as "no result, rerun": its last stderr
lines are printed, so a refusal names its cause, and it is run again (up to
RETRIES times). With --trace 1 the per-layer metrics are compared instead,
largest relative moves first. Only the python3 standard library is used.
"""

import argparse
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline_abr", "explain_offline", "serve_sparse", "serve_mixed")
RUN_TIMEOUT_S = 900  # the first run of a side also builds it
RETRIES = 2  # reruns of a run that printed no result
CHECK_LINE = re.compile(r"^(pipeline_abr: fingerprint|explain_offline: \d+ inputs)")
LATE_P99 = re.compile(r" measure: .*late p99 ([0-9.]+) us")


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def extract(ref, into):
    """git archive REF into `into`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: a dict with metrics or an error."""
    steal0, total0 = cpu_times()
    began = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as error:
        returncode, stdout = None, ""
        stderr = (error.stderr or b"").decode(errors="replace") + \
            f"\nbench_diff: no exit after {RUN_TIMEOUT_S} s"
    steal1, total1 = cpu_times()
    record = {
        "steal_pct": round(100.0 * (steal1 - steal0) / max(1, total1 - total0), 2),
        "wall_s": round(time.monotonic() - began, 1),
        "returncode": returncode,
        "checks": [l for l in stderr.splitlines() if CHECK_LINE.match(l)],
        "late_p99_us": [float(m) for m in LATE_P99.findall(stderr)],
    }
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        record["stderr_tail"] = stderr.strip().splitlines()[-8:]
        return record
    record.update(correct=result.get("correct"), attempted=result.get("attempted"),
                  failed=result.get("failed"),
                  metrics={k: v["value"] for k, v in result.get("metrics", {}).items()})
    if result.get("correct") is not True:
        record["stderr_tail"] = stderr.strip().splitlines()[-8:]
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent, change, lower_is_better, bound):
    """Verdict for paired runs (parent[i] and change[i] ran as pair i)."""
    sign = -1.0 if lower_is_better else 1.0  # sign * (change - parent) > 0 is better
    pairs = len(parent)
    change_wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    iqr_p = q3_p - q1_p
    gain = sign * (med_c - med_p)
    scale = abs(med_p) if med_p else 1.0
    needed = math.ceil(0.9 * pairs)
    if change_wins >= needed and gain > iqr_p:
        word = "better"
    elif parent_wins >= needed and -gain > bound * scale:
        word = "worse"
    elif -gain > bound * scale:
        word = "unresolved"
    elif iqr_p > bound * scale and not all(sign * (c - p) > 0 for c in change for p in parent):
        word = "unresolved"
    else:
        word = "within bound"
    return {"parent": med_p, "parent_q": [q1_p, q3_p], "change": med_c,
            "change_q": list(quartiles(change)),
            "delta_pct": round(100.0 * (med_c - med_p) / scale, 2),
            "change_wins": change_wins, "parent_wins": parent_wins, "pairs": pairs,
            "verdict": word}


def summarize(runs, workload, seed, trace, specs):
    """Per-metric verdicts over the complete pairs of one workload and seed."""
    pairs = {}
    for r in runs:
        if (r["workload"], r["seed"], r["trace"]) == (workload, seed, trace) and "metrics" in r:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    out = {}
    for name, spec in specs.items():
        values = [(p["parent"][name], p["change"][name]) for p in complete
                  if name in p["parent"] and name in p["change"]]
        if values:
            out[name] = verdict([v[0] for v in values], [v[1] for v in values],
                                spec["better"] == "lower", spec.get("bound", 0.0))
    return out


def print_summary(workload, seed, trace, summary):
    print(f"\n== {workload}, seed {seed}, --trace {trace} ==")
    rows = sorted(summary.items(), key=lambda kv: -abs(kv[1]["delta_pct"])) if trace else \
        summary.items()
    for name, s in rows:
        print(f"  {name:34s} parent {s['parent']:12.4g} [{s['parent_q'][0]:.4g}, "
              f"{s['parent_q'][1]:.4g}]  change {s['change']:12.4g} [{s['change_q'][0]:.4g}, "
              f"{s['change_q'][1]:.4g}]  {s['delta_pct']:+7.1f}%  wins "
              f"{s['change_wins']}:{s['parent_wins']} of {s['pairs']}"
              + ("" if trace else f"  {s['verdict']}"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    unknown = set(workloads) - set(WORKLOADS)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)} or pairs < 1")
    specs = {m["name"]: m for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    record = {"ref": args.ref, "seconds": seconds, "trace": args.trace, "runs": [],
              "summary": {}}
    with tempfile.TemporaryDirectory(prefix="bench-diff-") as scratch:
        parent_tree = Path(scratch) / "parent"
        parent_tree.mkdir()
        record["ref_commit"] = extract(args.ref, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        print(f"bench-diff: {args.ref} ({record['ref_commit'][:12]}) against the work tree, "
              f"{args.pairs} pairs x {seconds} s, --trace {args.trace}", file=sys.stderr)
        for side, tree in trees.items():  # build both sides before timing anything
            warm = run_once(tree, "explain_offline", 1, 1, 0)
            if "metrics" not in warm:
                sys.exit(f"{side} does not build or run:\n" + "\n".join(warm["stderr_tail"]))
        for seed in seeds:
            for workload in workloads:
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for position, side in enumerate(order):
                        for attempt in range(RETRIES + 1):
                            run = run_once(trees[side], workload, seed, seconds, args.trace)
                            run.update(side=side, workload=workload, seed=seed,
                                       trace=args.trace, pair=pair, order=position,
                                       attempt=attempt)
                            record["runs"].append(run)
                            if "metrics" in run:
                                break
                            print(f"{workload} seed {seed} pair {pair} {side}: no result, "
                                  f"rerun (steal {run['steal_pct']}%)", file=sys.stderr)
                            for line in run["stderr_tail"]:
                                print(f"    {line}", file=sys.stderr)
                        late = run["late_p99_us"][-1:] or ["-"]
                        print(f"{workload} seed {seed} pair {pair} {side}: steal "
                              f"{run['steal_pct']}%, late p99 {late[0]} us, "
                              f"correct {run.get('correct')}", file=sys.stderr)
                summary = summarize(record["runs"], workload, seed, args.trace, specs)
                record["summary"].setdefault(str(seed), {})[workload] = summary
                print_summary(workload, seed, args.trace, summary)
                sys.stdout.flush()
                if args.json:
                    Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    failed = [r for r in record["runs"] if "metrics" not in r or r.get("correct") is not True]
    if failed:
        print(f"\n{len(failed)} run(s) gave no result or failed their output checks",
              file=sys.stderr)
    return 1 if any(r.get("correct") is False for r in record["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
