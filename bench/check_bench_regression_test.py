#!/usr/bin/env python3
"""Tests for check_bench_regression.py on synthetic BENCH_*.json files.

Run from anywhere: python3 bench/check_bench_regression_test.py

Each case writes a baseline shaped like bench_stripe's (no "better"
fields, as in the checked-in baselines) and one or more current runs that
carry the direction of every value, then runs the gate the way CI does
and checks its exit code.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")

# (config, measurement, value, better) for a stripe-like run.
STRIPE = [
    ("stripe/width1", "sequential read", 9700.0, "lower"),
    ("stripe/width1", "aggregate_mb_per_s", 103.0, "higher"),
    ("stripe/width2", "sequential read", 4970.0, "lower"),
    ("stripe/width2", "aggregate_mb_per_s", 201.0, "higher"),
    ("stripe/width4", "sequential read", 2540.0, "lower"),
    ("stripe/width4", "aggregate_mb_per_s", 393.0, "higher"),
    ("stripe/degraded", "healthy_mb_per_s", 202.0, "higher"),
    ("stripe/degraded", "degraded_mb_per_s", 103.0, "higher"),
    ("stripe/degraded", "degraded_ratio_x", 0.51, "higher"),
    ("stripe/summary", "width2_speedup_x", 1.95, "higher"),
    ("stripe/summary", "width4_speedup_x", 3.82, "higher"),
]


def make_doc(with_better, overrides=None):
    """A BENCH_stripe.json document; overrides maps (config, op) to value."""
    overrides = overrides or {}
    configs = {}
    for config, op, value, better in STRIPE:
        m = {"mean_us": overrides.get((config, op), value),
             "max_dev_pct": 0.0, "iterations": 1}
        if with_better:
            m["better"] = better
        configs.setdefault(config, {})[op] = m
    return {"table": "stripe", "quick": True,
            "configs": [{"name": name, "measurements": ms, "metrics": {}}
                        for name, ms in configs.items()]}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, *currents):
        """Exit code of the gate on the given current runs."""
        paths = [self.write(f"run{i}.json", doc)
                 for i, doc in enumerate(currents)]
        baseline = self.write("baseline.json", make_doc(with_better=False))
        result = subprocess.run(
            [sys.executable, GATE, *paths, baseline,
             "--require", "stripe/width", "--require", "stripe/degraded"],
            capture_output=True, text=True)
        self.output = result.stdout + result.stderr
        return result.returncode

    def test_unchanged_run_passes(self):
        self.assertEqual(self.gate(make_doc(True)), 0, self.output)

    def test_halved_rate_fails(self):
        run = make_doc(True, {("stripe/width4", "aggregate_mb_per_s"): 196.5})
        self.assertEqual(self.gate(run), 1, self.output)
        self.assertIn("REGRESSION  stripe/width4::aggregate_mb_per_s",
                      self.output)

    def test_doubled_rate_passes(self):
        run = make_doc(True, {("stripe/width4", "aggregate_mb_per_s"): 786.0})
        self.assertEqual(self.gate(run), 0, self.output)

    def test_doubled_timing_fails(self):
        run = make_doc(True, {("stripe/width4", "sequential read"): 5080.0})
        self.assertEqual(self.gate(run), 1, self.output)
        self.assertIn("REGRESSION  stripe/width4::sequential read",
                      self.output)

    def test_best_of_runs_takes_the_highest_rate(self):
        slow = make_doc(True, {("stripe/width4", "aggregate_mb_per_s"): 196.5})
        self.assertEqual(self.gate(slow, make_doc(True)), 0, self.output)

    def test_unknown_direction_is_a_shape_error(self):
        run = make_doc(True)
        bad = copy.deepcopy(run)
        bad["configs"][0]["measurements"]["sequential read"]["better"] = "up"
        self.assertEqual(self.gate(bad), 2, self.output)


if __name__ == "__main__":
    unittest.main()
