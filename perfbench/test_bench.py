#!/usr/bin/env python3
"""Self-tests of the benchmark: its gates can fail and its counts repeat.

Run from the root of a checkout (takes a few minutes; builds on first use):

    python3 perfbench/test_bench.py

- Every workload passes at a short duration and prints exactly the
  end-to-end metrics BENCHMARK.json lists.
- --corrupt flips one output word per workload: the run must report a
  failure (correct false, failed > 0, error_rate > 0 on the traced run) and
  exit non-zero.
- Every *_count per-layer metric is identical across two runs of one seed
  and across two seeds, and a traced run prints exactly the per-layer
  metrics BENCHMARK.json lists.
- In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, env=None):
    p = subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_passes_with_the_listed_metrics(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res = run("--workload", w, "--seed", "1", "--seconds",
                              "1", "--trace", "0")
                self.assertEqual(rc, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), names)
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_corrupted_output_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res = run("--workload", w, "--seed", "1", "--seconds",
                              "1", "--trace", "0", "--corrupt")
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
        rc, res = run("--workload", "ntt", "--seed", "1", "--seconds", "1",
                      "--trace", "1", "--corrupt")
        self.assertNotEqual(rc, 0)
        self.assertGreater(res["metrics"]["error_rate"]["value"], 0)

    def test_counts_repeat_across_runs_and_seeds(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        counts = []
        for seed in ("1", "1", "2"):
            rc, res = run("--workload", "ntt", "--seed", seed, "--seconds",
                          "1", "--trace", "1")
            self.assertEqual(rc, 0)
            self.assertEqual(set(res["metrics"]), names)
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if k.endswith("_count")})
        self.assertTrue(counts[0])
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0], counts[2])

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "blas",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
