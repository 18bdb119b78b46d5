#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 neobench/test_neobench.py

They go through neobench/run.py (which builds the benchmark on first use) with
--smoke, which shrinks ResNet-50 to 64x64 and every phase to a fraction of a second.
"""
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "neobench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# resnet50-int8 is left out of BENCHMARK.json as unsteady but still runs by hand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["resnet50-int8"]


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    raise AssertionError("no record line")


class ScheduleTest(unittest.TestCase):
    def schedule(self, seed):
        proc = run("--print-schedule", "--seed", str(seed), "--seconds", "30")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_same_seed_same_arrivals_and_models(self):
        first = self.schedule(5)
        self.assertEqual(first, self.schedule(5))
        self.assertIn("closed digest", first)

    def test_other_seed_other_arrivals(self):
        self.assertNotEqual(self.schedule(5), self.schedule(6))


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        expected = {m["name"]: m["unit"] for m in specs}
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(expected))
        for name, value in got.items():
            self.assertEqual(value["unit"], expected[name], name)
            self.assertIsInstance(value["value"], (int, float), name)
            self.assertTrue(math.isfinite(value["value"]), name)

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, specs in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", trace, "--smoke")
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, specs)
                    record = record_of(proc)
                    for key in ("host_brand", "nproc", "host_isa", "target_lanes",
                                "target_fma_per_cycle", "gemm_packed_isa",
                                "gemm_packed_s8_isa", "conv_nchwc_s8_isa", "commit",
                                "source_digest", "seed", "error_rate"):
                        self.assertIn(key, record)
                    self.assertEqual(record["seed"], 3)


class CorruptReferenceTest(unittest.TestCase):
    def test_corrupted_reference_counts_as_errors(self):
        for workload in ("resnet50-f32", "serve-mix"):
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "4", "--seconds", "1",
                           "--trace", "1", "--smoke", "--corrupt-reference")
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["error_rate"]["value"], 0.0)
                self.assertGreater(record_of(proc)["error_rate"], 0.0)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "neobench", bare / "neobench")
        try:
            proc = subprocess.run(
                [sys.executable, "neobench/run.py", "--workload", "serve-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
