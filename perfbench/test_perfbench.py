#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark, at smoke size.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They check that every workload reports every metric BENCHMARK.json names,
with its unit; that two runs on one seed give identical counts
(allocations, events, packets, simulated latencies); that another seed still
passes every correctness check; and that run.py fails without printing a
result when the sources it builds from are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Work units per rep at smoke size: ticks, cycles or seeds.
SMOKE_SIZE = {"steady": 40, "churn": 2, "stress": 2, "fanin": 200}
# Wall-clock figures differ between runs; everything else must repeat.
TIMED_UNITS = {"s", "1/s", "MB"}
TIMED_NAMES = {"trace_overhead_frac"}


def run(workload, seed, trace, reps=2):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--reps", str(reps), "--rep-size", str(SMOKE_SIZE[workload])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stdout + out.stderr


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS and name not in TIMED_NAMES}


class PerfbenchTest(unittest.TestCase):
    def check_result(self, workload, trace, seed):
        code, result, log = run(workload, seed, trace)
        self.assertEqual(code, 0, log)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], log)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            self.assertIsNotNone(got, f"{workload}: {metric['name']} missing")
            self.assertEqual(got["unit"], metric["unit"])
            self.assertIsInstance(got["value"], (int, float))
        for name in ("setup_s", "ops_per_s"):
            if not trace:
                self.assertGreater(result["metrics"][name]["value"], 0)
        return result

    def test_every_metric_present_and_counts_repeat(self):
        for w in SMOKE_SIZE:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    first = self.check_result(w, trace, seed=11)
                    second = self.check_result(w, trace, seed=11)
                    self.assertEqual(counts(first), counts(second))

    def test_another_seed_passes(self):
        for w in SMOKE_SIZE:
            with self.subTest(workload=w):
                self.check_result(w, trace=1, seed=12345)

    def test_fails_without_sources(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "build"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "steady",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
