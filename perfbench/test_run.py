#!/usr/bin/env python3
"""Self-tests for the benchmark, on the tiny --smoke configurations.

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit
on every workload, that the output check passes on correct runs and
catches a deliberately wrong reference, and that the benchmark refuses
to run from a directory without the library sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "11", "--seconds", "0.5",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def parse(done):
    lines = done.stdout.strip().splitlines()
    samples = next(json.loads(line[len("# samples "):])
                   for line in lines if line.startswith("# samples "))
    return json.loads(lines[-1]), samples


class SmokeMetrics(unittest.TestCase):
    def check_metrics(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench(workload, trace, "--smoke")
                self.assertEqual(done.returncode, 0, done.stderr)
                result, _ = parse(done)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], done.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                yield workload, result["metrics"]

    def test_end_to_end_metrics_print_with_units(self):
        for _, metrics in self.check_metrics(0, "end_to_end"):
            for name, m in metrics.items():
                self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_print_with_units(self):
        for workload, metrics in self.check_metrics(1, "per_layer"):
            value = {name: m["value"] for name, m in metrics.items()}
            self.assertEqual(value["mpi.retransmits"], 0)
            self.assertGreater(value["core.quanta"], 0)
            self.assertGreater(value["engine.run_s"], 0)
            self.assertGreater(value["span_coverage"], 0.9)
            self.assertLessEqual(value["span_coverage"], 1.0)
            if workload == "scale-ep":
                self.assertGreaterEqual(value["ckpt.images"], 1)
                self.assertGreater(value["ckpt_mb"], 0)
            if workload == "adaptive-is":
                self.assertGreater(value["core.mean_quantum_us"], 1.0)
            if workload == "sync-namd":
                self.assertGreater(value["phase.exchange_ms"], 0)
            if workload == "dist-ep":
                self.assertGreater(value["peers.cpu_s"], 0)
                self.assertGreater(value["peers.peak_rss_mb"], 0)


class OutputCheck(unittest.TestCase):
    def test_wrong_reference_fails_every_checked_run(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace, "--smoke",
                                     "--wrong-reference")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result, samples = parse(done)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"],
                                     samples["timed_runs"] + trace)
                    self.assertIn("differs from the reference",
                                  done.stderr)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
