#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

Runs every workload at 5% of its data size for one second, untraced and
traced, and checks that the last stdout line parses as the result object,
that every answer passed its checks, and that every metric BENCHMARK.json
names appears with its unit.

    python3 perfbench/tests/test_smoke.py        # from the repository root

The first run builds the benchmark (see perfbench/run.py).
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        fingerprint = [l for l in lines if l.startswith("fingerprint ")]
        self.assertEqual(len(fingerprint), 1)
        fp = json.loads(fingerprint[0][len("fingerprint "):])
        for key in ("cpu_model", "nproc", "llc_bytes", "simd_backend",
                    "build_type", "source", "thp_mode", "seed",
                    "env.steal_share"):
            self.assertIn(key, fp)

    def test_spec_names_the_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["batch-static", "serve-net", "churn-dynamic"])


def add_cases():
    for w in ("batch-static", "serve-net", "churn-dynamic"):
        for trace in (0, 1):
            name = f"test_{w.replace('-', '_')}_trace{trace}"
            setattr(SmokeTest, name,
                    lambda self, w=w, trace=trace: self.check(w, trace))


add_cases()

if __name__ == "__main__":
    unittest.main()
