#!/usr/bin/env python3
"""Self-tests of the benchmark's layer attribution.

    python3 e2ebench/tests/test_attribution.py     # from the repo root

The first tests pin the self-time arithmetic on hand-built spans and check
that BENCHMARK.json lists exactly the metrics run.py prints. The last one
builds the harness, injects a known delay into one layer span
(--delay-span) and checks that the delay shows up in that layer's self
time and in no other layer's.
"""

import json
import os
import statistics
import sys
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import run  # noqa: E402
from layers import Trace, union_length  # noqa: E402

MS = 1_000_000  # ns


class SelfTimeTest(unittest.TestCase):
    def test_union_clips_and_merges(self):
        self.assertEqual(union_length([(0, 10), (5, 20), (30, 40)], 0, 35),
                         25)
        self.assertEqual(union_length([], 0, 10), 0)

    def test_parallel_children_counted_once(self):
        # job [0,100) runs two explores on other threads, [10,60) and
        # [30,80); the first calls the estimator for [20,30).
        trace = Trace([[0, -1, "job", 0, 100 * MS, 0],
                       [1, 0, "dse.explore", 10 * MS, 60 * MS, 1],
                       [2, 0, "dse.explore", 30 * MS, 80 * MS, 2],
                       [3, 1, "estimate.func", 20 * MS, 30 * MS, 1]])
        self_s = trace.self_by_name()
        self.assertAlmostEqual(self_s["job"], 0.030)
        self.assertAlmostEqual(self_s["dse.explore"], 0.040 + 0.050)
        self.assertAlmostEqual(self_s["estimate.func"], 0.010)
        self.assertAlmostEqual(trace.coverage(0), 0.70)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class InjectedDelayTest(unittest.TestCase):
    DELAY_S = 0.15
    LAYER = "emit.hlscpp"
    INPUTS = {"budget": "xc7z020", "samples": 4, "iterations": 4,
              "kernels": [{"kernel": "gemm", "size": 32, "seed": 1},
                          {"kernel": "bicg", "size": 32, "seed": 1}]}

    def self_times(self, exe, delay):
        """Median self time per layer over three traced runs."""
        runs = []
        for _ in range(3):
            out = run.run_workload(exe, "kernel_dse", self.INPUTS, 0, True,
                                   time.monotonic() + 120, delay)
            traced = [p for p in out["passes"] if p["traced"]]
            runs.append(Trace(traced[0]["spans"]).self_by_name())
        names = set().union(*runs)
        return {n: statistics.median(r.get(n, 0.0) for r in runs)
                for n in names}

    def test_delay_lands_in_one_layer_only(self):
        exe = run.build()
        base = self.self_times(exe, None)
        slow = self.self_times(exe, "%s:%d" % (self.LAYER,
                                               self.DELAY_S * 1000))
        kernels = len(self.INPUTS["kernels"])
        injected = self.DELAY_S * kernels
        delta = {n: slow.get(n, 0.0) - base.get(n, 0.0)
                 for n in set(base) | set(slow)}
        self.assertGreater(delta[self.LAYER], 0.9 * injected)
        self.assertLess(delta[self.LAYER], 1.5 * injected)
        for name, d in delta.items():
            if name != self.LAYER:
                self.assertLess(abs(d), 0.1 * injected, name)


if __name__ == "__main__":
    unittest.main()
