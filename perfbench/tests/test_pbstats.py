"""Tests for the benchmark's percentile helper, result-line writer and spec.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import pbstats  # noqa: E402
import run  # noqa: E402

SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(pbstats.percentile(values, 50), 5)
        self.assertEqual(pbstats.percentile(values, 90), 9)
        self.assertEqual(pbstats.percentile(values, 91), 10)
        self.assertEqual(pbstats.percentile(values, 100), 10)
        self.assertEqual(pbstats.percentile([3.0], 99), 3.0)

    def test_unsorted_input(self):
        self.assertEqual(pbstats.percentile([9, 1, 5, 3, 7], 50), 5)

    def test_rank_is_exact_on_round_products(self):
        # 0.9 * 100 is not exactly 90 in binary; the rank must still be 90
        self.assertEqual(pbstats.rank(90, 100), 90)
        self.assertEqual(pbstats.rank(99, 1000), 990)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            pbstats.percentile([], 50)
        with self.assertRaises(ValueError):
            pbstats.rank(0, 10)
        with self.assertRaises(ValueError):
            pbstats.rank(101, 10)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertTrue(pbstats.reportable(99, 1000))
        self.assertEqual(pbstats.beyond(99, 1000), 10)
        self.assertFalse(pbstats.reportable(99, 999))
        # 128 samples: the nearest-rank "p99" is the 127th, one short of the max
        self.assertFalse(pbstats.reportable(99, 128))
        self.assertTrue(pbstats.reportable(50, 1))
        self.assertFalse(pbstats.reportable(50, 0))

    def test_tail_text_prints_the_sample_count(self):
        values = [i / 1000.0 for i in range(1000)]
        self.assertIn("(n=1000)", pbstats.tail_text(values, 99, 1e3))
        short = pbstats.tail_text(values[:500], 99, 1e3)
        self.assertTrue(short.startswith("n/a"))
        self.assertIn("n=500", short)


class ResultLineTest(unittest.TestCase):
    def test_shape_and_digits(self):
        value = 1.0 / 3.0
        line = pbstats.result_line(True, 10, 1, {"latency_ms": (value, "ms"), "n": (4, "count")})
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual(parsed["attempted"], 10)
        self.assertEqual(parsed["failed"], 1)
        self.assertEqual(parsed["metrics"]["latency_ms"], {"value": value, "unit": "ms"})
        self.assertEqual(parsed["metrics"]["n"]["value"], 4.0)
        self.assertNotIn("\n", line)

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            pbstats.result_line(True, 0, 0, {})
        with self.assertRaises(TypeError):
            pbstats.result_line(True, 1.5, 0, {})
        with self.assertRaises(ValueError):
            pbstats.result_line(True, 1, 0, {"x": (math.nan, "ms")})
        with self.assertRaises(ValueError):
            pbstats.result_line(True, 1, 0, {"x": (math.inf, "ms")})


class SegmentRateTest(unittest.TestCase):
    def test_steady_stream(self):
        samples = [{"t0": i * 0.1, "t1": (i + 1) * 0.1} for i in range(50)]
        self.assertAlmostEqual(run.segment_rate(samples, lambda s: True), 10.0)

    def test_one_slow_slice_does_not_move_the_median(self):
        samples = []
        t = 0.0
        for i in range(50):
            dt = 1.0 if 10 <= i < 20 else 0.1
            samples.append({"t0": t, "t1": t + dt})
            t += dt
        self.assertAlmostEqual(run.segment_rate(samples, lambda s: True), 10.0)

    def test_counts_only_selected_replies(self):
        samples = [{"t0": i * 0.1, "t1": (i + 1) * 0.1, "ok": i % 2 == 0} for i in range(50)]
        self.assertAlmostEqual(run.segment_rate(samples, lambda s: s["ok"]), 5.0)


class SegmentLatencyTest(unittest.TestCase):
    def test_one_slow_slice_does_not_move_the_median(self):
        samples = []
        t = 0.0
        for i in range(50):
            dt = 1.0 if 10 <= i < 20 else 0.1 + 0.001 * (i % 10)
            samples.append({"t0": t, "t1": t + dt})
            t += dt
        self.assertAlmostEqual(run.segment_latency(samples, 50), 0.104)
        self.assertAlmostEqual(run.segment_latency(samples, 90), 0.108)

    def test_few_samples_make_one_slice(self):
        samples = [{"t0": 0.0, "t1": 0.01 * (i + 1)} for i in range(7)]
        self.assertAlmostEqual(run.segment_latency(samples, 50), 0.04)


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(SPEC) as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_metric_lists_match_the_runner(self):
        e2e = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        layer = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], run.GATED)
        self.assertTrue(set(run.GATED) <= set(run.WORKLOADS))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_every_layer_metric_names_what_it_moves(self):
        for name, _ in run.PER_LAYER:
            self.assertTrue(run.moves_for(name), name)


if __name__ == "__main__":
    unittest.main()
