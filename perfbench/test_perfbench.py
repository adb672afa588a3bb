#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:  python3 perfbench/test_perfbench.py

- every workload in short mode (one op) prints exactly the metric names and
  units BENCHMARK.json declares, untraced and traced, and passes its gates;
- every correctness gate passes on a good result and trips on a corrupted
  one (perfbench --selftest);
- without the product sources next to it the benchmark exits non-zero and
  prints no result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT, runner=RUN):
    return subprocess.run([sys.executable, runner] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class ShortMode(unittest.TestCase):
    def check_metrics(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                p = run("--workload", w["name"], "--seed", "0",
                        "--seconds", "1", "--trace", trace, "--short")
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                res = last_json(p.stdout)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"], p.stdout[-2000:])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in res["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)
                if trace == "1":
                    path = os.path.join(
                        ROOT, ".bench_run",
                        "trace-%s-seed0.json" % w["name"])
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    self.assertTrue(any(e["name"] == "op" for e in events))

    def test_untraced_metric_names_and_units(self):
        self.check_metrics("0", spec()["end_to_end"])

    def test_traced_metric_names_and_units(self):
        self.check_metrics("1", spec()["per_layer"])


class Gates(unittest.TestCase):
    def test_every_gate_trips_on_a_corrupted_result(self):
        p = run("--selftest")
        cases = last_json(p.stdout)["selftest"]
        self.assertGreaterEqual(len(cases), 10)
        self.assertEqual([k for k, ok in cases.items() if not ok], [])
        self.assertEqual(p.returncode, 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_product_sources(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = run("--workload", "table1", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare,
                    runner=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
