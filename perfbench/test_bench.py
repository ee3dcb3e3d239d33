#!/usr/bin/env python3
"""Tests of the lswc benchmark itself.

    python3 perfbench/test_bench.py

Builds lswc_bench (as run.py does) and runs each real workload with a
short --seconds; the program still makes its minimum number of
repetitions, so every run crawls every cell several times.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, trace, seed=7):
    """Runs one workload briefly and returns the result object."""
    out = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("cannot build lswc_bench")
        cls.bench = load_benchmark()

    def test_metric_names_and_units_follow_the_grammar(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for metric in self.bench[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                names.append(metric["name"])
        for workload in self.bench["workloads"]:
            self.assertRegex(workload["name"], NAME)
            names.append(workload["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_is_emitted_for_every_workload(self):
        # Seed 7 has no pin, so the trace=1 runs check decorated crawls
        # only against the same run's undecorated (Simulator) crawls: a
        # decorator that changed a decision would fail its cell.
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.bench[group]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run_workload(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for value in result["metrics"].values():
                        self.assertTrue(math.isfinite(value["value"]))

    def test_a_wrong_pin_fails_the_run(self):
        workdir = os.path.join(run.ROOT, ".bench_work", "test-pins")
        os.makedirs(workdir, exist_ok=True)
        try:
            with open(os.path.join(run.BENCH_DIR, "pins.txt")) as f:
                pins = [l for l in f if l.startswith("batch_k16 1 soft ")]
            self.assertEqual(len(pins), 1)
            fields = pins[0].split()
            fields[3] = "%016x" % (int(fields[3], 16) ^ 1)
            bad = os.path.join(workdir, "bad_pins.txt")
            with open(bad, "w") as f:
                f.write(" ".join(fields) + "\n")
            out = subprocess.run(
                [self.binary, "--workload=batch_k16", "--seed=1",
                 "--seconds=0.1", "--workdir=" + workdir, "--pins=" + bad],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
