#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at --scale smoke in both trace modes and checks the
result line against BENCHMARK.json, proves each correctness gate fires
on a deliberately corrupted reference, and checks that a tree holding
only the benchmark (no library sources) fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


class SmokeTest(unittest.TestCase):

    def check_result(self, result, trace):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0.0)

    def test_every_workload_in_both_modes(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.check_result(result, trace)

    def test_decomposed_step_adds_up(self):
        _, result = run("train_fg_inram", 1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        phases = sum(m[k] for k in (
            "models.encode_views_ms", "losses.loss_f_ms",
            "core.grad_features_ms", "losses.loss_g_ms",
            "autograd.backward_ms", "train.optimizer_ms",
            "train.unattributed_ms"))
        self.assertAlmostEqual(phases, m["train.step_ms"], delta=1e-6)
        self.assertLess(m["train.unattributed_ms"], 0.05 * m["train.step_ms"])

    def test_corrupted_reference_fails_the_run(self):
        cases = [("train_fg_inram", "train_trajectory"),
                 ("pretrain_dp2_stream", "rank_params"),
                 ("embed_search_c2", "served_embedding"),
                 ("embed_search_c2", "neighbors")]
        for workload, gate in cases:
            for trace in (0, 1):
                with self.subTest(workload=workload, gate=gate, trace=trace):
                    proc, result = run(workload, trace, "--corrupt", gate)
                    self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_tree_without_library_fails_without_result(self):
        parent = os.path.join(
            os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
        os.makedirs(parent, exist_ok=True)
        tree = tempfile.mkdtemp(prefix="bare-", dir=parent)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
            shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tree, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
