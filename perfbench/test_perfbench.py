#!/usr/bin/env python3
"""The benchmark's own test: every workload once at a short length.

    python3 perfbench/test_perfbench.py          # from the repository root

Checks that BENCHMARK.json is well formed, that each workload prints the
end-to-end set (--trace 0) and the per-layer set (--trace 1) under the names
and units BENCHMARK.json lists, with every output check passing; that the
output checks repeat exactly for a seed; and that the benchmark refuses to run
without the repository's sources. Takes about two minutes once built.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "2"


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                           "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_lines(stderr):
    """The harness's reference-output lines (fingerprints and checksums)."""
    return [line for line in stderr.splitlines()
            if "checksum" in line or "fingerprint" in line]


class BenchmarkSpec(unittest.TestCase):
    def test_spec_is_well_formed(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class EveryWorkload(unittest.TestCase):
    def check(self, workload, trace):
        out = result(run(workload, 7, trace))
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(out["metrics"]), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in out["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return out["metrics"]

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)
                layers = self.check(w["name"], 1)
                if w["name"] == "pipeline_abr":
                    share = layers["core.pipeline_stage_share"]["value"]
                    self.assertTrue(0.9 <= share <= 1.1, share)


class OutputChecksRepeat(unittest.TestCase):
    def test_same_seed_same_outputs(self):
        for workload in ("pipeline_abr", "explain_offline"):
            with self.subTest(workload=workload):
                first = run(workload, 3, 0)
                second = run(workload, 3, 0)
                result(first)
                result(second)
                self.assertTrue(check_lines(first.stderr))
                self.assertEqual(check_lines(first.stderr), check_lines(second.stderr))


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path)
            proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
