#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at toy size.

Runs each workload run.py knows (those BENCHMARK.json gates and
scale2k_map, which is run by hand) on the small scenario family for one
second, untraced and traced, and checks that the result passes its output
checks and carries every metric of BENCHMARK.json with its unit, plus the host and
configuration record. Run from the repository root:

    python3 perfbench/test_smoke.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402
RECORD_KEYS = {"nproc", "pool_workers", "build_type", "compiler", "seed",
               "commit", "source_digest"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    config = next(l for l in lines if l.startswith("config: "))
    return json.loads(config[len("config: "):]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        record, result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["problems"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertLessEqual(RECORD_KEYS, set(record))
        self.assertEqual(record["seed"], 7)
        self.assertEqual(record["workload"], workload)

    def test_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
