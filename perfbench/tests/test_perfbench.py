"""Self-tests of the benchmark.

* A tiny-size run of every workload, untraced and traced: the run is
  correct, no operation fails, and the metrics are exactly the ones
  BENCHMARK.json lists for that mode, with their units.
* A mutation test per correctness check: --fault CHECK corrupts one answer
  (or one decrypted aggregate) feeding that check, and the run must then
  report correct=false and name the check.
* Without the library sources next to it, run.py fails fast and prints no
  result.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run as runner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The checks each workload runs, by the name --fault and the diagnostics use.
CHECKS = {
    "ad_dashboard": ["answer", "conservation_groups", "conservation_splashe", "append_count"],
    "bdb_batch": ["answer", "append_count"],
    "serve_ingest": ["stable_slice", "prefix", "final_count", "shard_sum"],
}
# Checks that only the traced run makes.
TRACED_CHECKS = {"ad_dashboard": ["composed"], "bdb_batch": ["composed"]}

BINARY = None


def setUpModule():
    global BINARY
    BINARY = runner.ensure_built()
    if BINARY is None:
        raise RuntimeError("the benchmark did not build")


def bench(workload, trace=0, fault=None):
    cmd = [BINARY, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    if fault is not None:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        result, stderr = bench(workload, trace)
        self.assertTrue(result["correct"], stderr)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in listed},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)


class Mutations(unittest.TestCase):
    def check_fault(self, workload, check, trace):
        result, stderr = bench(workload, trace, fault=check)
        self.assertFalse(result["correct"], f"{workload}: corrupting '{check}' went unnoticed")
        self.assertIn(f"CHECK FAILED [{check}]", stderr)

    def test_every_check_catches_a_corrupted_value(self):
        for workload, checks in CHECKS.items():
            for check in checks:
                with self.subTest(workload=workload, check=check):
                    self.check_fault(workload, check, 0)
        for workload, checks in TRACED_CHECKS.items():
            for check in checks:
                with self.subTest(workload=workload, check=check):
                    self.check_fault(workload, check, 1)


class MissingSources(unittest.TestCase):
    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
