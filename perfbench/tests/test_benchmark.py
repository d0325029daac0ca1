"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark (as run.py does), runs every workload briefly in both
modes, and checks the printed result against BENCHMARK.json. Takes under
two minutes after the build.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.build = run.build(("perfbench", "perfbench_traced",
                               "perfbench_schedule_test"))
        cls.results = {}
        for workload in cls.spec["workloads"]:
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"),
                     "--workload", workload["name"], "--seed", "3",
                     "--seconds", "2", "--trace", trace],
                    cwd=ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True, timeout=300)
                cls.results[(workload["name"], trace)] = (
                    proc.returncode, proc.stdout.strip().splitlines()[-1])

    def test_schedule(self):
        subprocess.run([os.path.join(self.build, "perfbench_schedule_test")],
                       check=True, stdout=subprocess.DEVNULL)

    def test_result_line_has_exactly_four_keys(self):
        for key, (code, line) in self.results.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0)
                result = json.loads(line)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_every_workload_prints_every_declared_metric_with_its_unit(self):
        declared = {
            "0": {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        for (workload, trace), (_, line) in self.results.items():
            metrics = json.loads(line)["metrics"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(metrics), set(declared[trace]))
            for name, metric in metrics.items():
                with self.subTest(workload=workload, trace=trace, metric=name):
                    self.assertTrue(NAME.fullmatch(name))
                    self.assertEqual(sorted(metric), ["unit", "value"])
                    self.assertTrue(UNIT.fullmatch(metric["unit"]))
                    self.assertEqual(metric["unit"], declared[trace][name])
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in self.spec["workloads"]:
            _, line = self.results[(workload["name"], "0")]
            for name, metric in json.loads(line)["metrics"].items():
                with self.subTest(workload=workload["name"], metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "train_fold", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
