#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every ``.calls`` count and ``recognizer.apartments_out`` of a traced run
   repeats exactly under two different ``PYTHONHASHSEED`` values, for each
   workload, and both runs pass their correctness checks.
2. The ``--seed`` argument alone changes the perturbed inputs: the same
   seed builds the same ladder, and other seeds change only the seeded ops.

Takes a few minutes: each traced run makes one untraced and one traced pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

SEEDED = {  # op-name prefixes whose input the seed chooses
    "dim1": ("heawood-long", "heawood-short", "gq22-long", "gq22-short", "k44-long",
             "k44-short", "k66-long", "k66-short", "k88-long", "k88-short"),
    "links": ("a2w3-x1.01", "a2w3-x0.99"),
    "cli": ("check-k33-long", "check-k33-short", "graph-antipodes("),
}


def traced_run(workload: str, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result_of(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_across_hash_seeds(self):
        for workload in W.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = traced_run(workload, "0"), traced_run(workload, "1")
                ra, rb = result_of(a), result_of(b)
                self.assertTrue(ra["correct"] and rb["correct"])
                keys = [k for k, _ in run.LAYER_METRICS
                        if k.endswith(".calls") or k == "recognizer.apartments_out"]
                self.assertEqual(len(keys), 16)
                for k in keys:
                    self.assertEqual(ra["metrics"][k]["value"], rb["metrics"][k]["value"], k)


class SeedChangesOnlyPerturbedInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.api = W.load_api(ROOT / "src")

    def ladder(self, workload: str, seed: int) -> list[str]:
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as d:
            return [op.name for op in W.build(workload, seed, self.api, Path(d))]

    def test_seed(self):
        for workload in W.WORKLOADS:
            with self.subTest(workload=workload):
                base = self.ladder(workload, 1)
                self.assertEqual(base, self.ladder(workload, 1))
                seeded = [n.startswith(SEEDED[workload]) for n in base]
                self.assertTrue(any(seeded))
                changed = set()
                for seed in range(2, 8):
                    other = self.ladder(workload, seed)
                    self.assertEqual(len(other), len(base))
                    for n, m, s in zip(base, other, seeded):
                        if s:
                            changed.add(n != m)
                        else:
                            self.assertEqual(n, m)
                self.assertIn(True, changed)


if __name__ == "__main__":
    unittest.main()
