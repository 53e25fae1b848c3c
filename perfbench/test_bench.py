#!/usr/bin/env python3
"""The benchmark's own test: every workload in a short mode.

Run from the repository root:

    python3 perfbench/test_bench.py

Each workload runs twice untraced and twice traced with a 4-second budget
(library workloads still finish at least one round).  The test checks that

* every metric named in BENCHMARK.json is emitted with its unit;
* outputs are correct, and the QoR counts and success ratio repeat exactly;
* every named percentile has at least 10 samples beyond it and sits at
  least 5 percentage points inside a single request class.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SECONDS = "4"
# Counts that must repeat exactly between two runs of one workload.
EXACT_END_TO_END = ["register_bits", "success_ratio"]
EXACT_PER_LAYER = [
    "solve.nodes",
    "logic.gates",
    "logic.literals",
    "bist.fault_patterns",
    "coverage.faults",
    "coverage.fault_coverage",
    "optimize.candidates",
    "optimize.test_length",
    "emit.bytes",
]


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    """Runs the benchmark once; returns (run record, result object)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    spec = load_spec()

    def check_workload(self, workload):
        runs = {trace: [run(workload, seed, trace) for seed in (1, 2)] for trace in (0, 1)}
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[table]}
            for record, result in runs[trace]:
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, expected, f"{workload} trace {trace}")
                self.assertEqual(record["host"]["profile"], "release")
                self.assertGreaterEqual(record["host"]["available_parallelism"], 1)
        for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
            first, second = (result["metrics"] for _, result in runs[trace])
            for name in names:
                self.assertEqual(first[name]["value"], second[name]["value"], f"{workload} {name}")
        for value in (r["metrics"]["setup_s"]["value"] for _, r in runs[0]):
            self.assertGreater(value, 0)
        return runs

    def test_gate_suite(self):
        self.check_workload("gate_suite")

    def test_wide_bist(self):
        self.check_workload("wide_bist")

    def test_solve_scale(self):
        self.check_workload("solve_scale")

    def test_serve_mixed(self):
        runs = self.check_workload("serve_mixed")
        for record, _ in runs[1]:
            percentiles = record["percentiles"]
            self.assertEqual(percentiles["p50"]["class"], "hit")
            self.assertEqual(percentiles["p99"]["class"], "miss")
            for name, p in percentiles.items():
                self.assertGreaterEqual(p["beyond"], 10, name)
                self.assertGreaterEqual(p["class_share_within_5pp"], 0.99, name)


if __name__ == "__main__":
    unittest.main()
