#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_bench.py      (from the root of a checkout)

Checks BENCHMARK.json against the benchmark contract, then runs every
workload at the tiny scale, untraced and traced, and checks that each run
passes its output checks and emits exactly the metrics BENCHMARK.json names
for that kind of run, each with its unit. Tiny runs take seconds; their
timings mean nothing.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class TinyRunTest(unittest.TestCase):
    """Every workload emits every metric of its kind, with its unit."""

    def run_bench(self, workload, trace):
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().split("\n")[-1])

    def test_every_metric_emitted(self):
        spec = load_spec()
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            expected = {m["name"]: m["unit"] for m in listed}
            for workload in spec["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    result = self.run_bench(workload["name"], trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)


if __name__ == "__main__":
    unittest.main()
