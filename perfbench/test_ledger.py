"""Tests for the benchmark's metric reader.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

TWO_POW_32 = 2 ** 32


def dump(counters, timers):
    """A registry dump shaped like util::write_metrics_json's output."""
    return json.loads(json.dumps({
        "manifest": {},
        "counters": counters,
        "histograms": {},
        "timers_ns": timers,
    }))


def timer(count, total_ns, max_ns, buckets):
    return {"count": count, "total_ns": total_ns, "max_ns": max_ns,
            "buckets": [{"lo": lo, "hi": hi, "count": n}
                        for lo, hi, n in buckets]}


class RegistryTest(unittest.TestCase):
    def test_overflow_bucket_and_large_totals(self):
        # Three calls above 2^32 ns land in the overflow bucket, which the
        # export writes with "hi": null.
        doc = dump({"core.waterfill.solves": 5}, {
            "core.waterfill.solve": timer(
                5, 3 * TWO_POW_32 + 3000, TWO_POW_32 + 7,
                [(1024.0, 2048.0, 2), (float(TWO_POW_32), None, 3)]),
        })
        reg = ledger.parse_registry(doc)
        t = reg.timer("core.waterfill.solve")
        self.assertEqual(t.total_ns, 3 * TWO_POW_32 + 3000)
        self.assertTrue(math.isinf(t.buckets[float(TWO_POW_32)][0]))
        # p50 falls in the overflow bucket: its lower edge, not a TypeError.
        self.assertEqual(ledger.bucket_percentile(t, 50), float(TWO_POW_32))
        # p20 falls in the bounded bucket: its geometric midpoint.
        self.assertAlmostEqual(ledger.bucket_percentile(t, 20),
                               math.sqrt(1024.0 * 2048.0))

    def test_delta_of_overflowing_timer(self):
        before = ledger.parse_registry(dump({"c": 10}, {
            "t": timer(1, TWO_POW_32 + 1, TWO_POW_32 + 1,
                       [(float(TWO_POW_32), None, 1)])}))
        after = ledger.parse_registry(dump({"c": 25}, {
            "t": timer(3, 3 * TWO_POW_32 + 5, TWO_POW_32 + 4,
                       [(4.0, 8.0, 1), (float(TWO_POW_32), None, 2)])}))
        d = ledger.delta(after, before)
        self.assertEqual(d.counter("c"), 15)
        self.assertEqual(d.timer("t").count, 2)
        self.assertEqual(d.timer("t").total_ns, 2 * TWO_POW_32 + 4)
        self.assertEqual(d.timer("t").buckets,
                         {4.0: (8.0, 1), float(TWO_POW_32): (math.inf, 1)})
        self.assertIsNone(ledger.bucket_percentile(ledger.Timer(), 50))

    def test_exact_repeats(self):
        a = ledger.parse_registry(dump({"x": 3, "y": 4, "z": 0},
                                       {"t": timer(2, 10, 6, [])}))
        b = ledger.parse_registry(dump({"x": 3, "y": 5, "z": 0},
                                       {"t": timer(2, 99, 60, [])}))
        exact, inexact = ledger.exact_repeats([a, b])
        # Timer totals vary run to run; only call counts are compared.
        self.assertEqual(exact, ["t.count", "x"])
        self.assertEqual(inexact, ["y"])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        for pct, value, beyond in ((50, 50, 50), (90, 90, 10), (99, 99, 1)):
            p = ledger.percentile(samples, pct)
            self.assertEqual((p.value, p.samples, p.beyond),
                             (value, 100, beyond))
        self.assertTrue(ledger.percentile(samples, 90).reportable)
        self.assertFalse(ledger.percentile(samples, 99).reportable)

    def test_rank_is_exact_integer_arithmetic(self):
        # ceil(0.99 * 100) must be 99 and ceil(0.9 * 10) must be 9, where
        # float arithmetic could round either way.
        self.assertEqual(ledger.nearest_rank(100, 99), 99)
        self.assertEqual(ledger.nearest_rank(10, 90), 9)
        self.assertEqual(ledger.nearest_rank(1, 50), 1)
        self.assertEqual(ledger.nearest_rank(3, 50), 2)
        with self.assertRaises(ValueError):
            ledger.percentile([], 50)

    def test_unit_percentile_takes_trimmed_mean_over_units(self):
        # Five units of 100 samples; the second was slowed twofold.
        samples = (list(range(1, 101)) + [2 * x for x in range(1, 101)]
                   + list(range(2, 102)) + list(range(3, 103))
                   + list(range(4, 104)))
        p = ledger.unit_percentile(samples, [100] * 5, 90)
        # Per-unit p90s are 90, 180, 91, 92, 93; trimming one from each end
        # leaves 91, 92, 93.
        self.assertEqual(p.value, 92.0)
        self.assertEqual(p.samples, 500)
        self.assertEqual(p.beyond, 10)

    def test_trimmed_mean(self):
        self.assertEqual(ledger.trimmed_mean([7]), 7)
        # Four values: int(4 * 0.2) = 0 trimmed from each end.
        self.assertEqual(ledger.trimmed_mean([1, 2, 3, 6]), 3.0)
        # Ten values: two trimmed from each end.
        self.assertEqual(ledger.trimmed_mean([100, 1, 2, 3, 4, 5, 6, 7, 8,
                                              -50]), 4.5)
        with self.assertRaises(ValueError):
            ledger.trimmed_mean([])

    def test_host_speed_scaling(self):
        # A unit whose reference-kernel figure read twice the nominal time
        # ran on a host at half speed: its times are halved.
        scales = ledger.unit_scales([2_000_000, 1_000_000], 1_000_000)
        self.assertEqual(scales, [0.5, 1.0])
        scaled = ledger.scale_units(array("q", [40, 60, 7]), [2, 1], scales)
        self.assertEqual(list(scaled), [20.0, 30.0, 7.0])
        with self.assertRaises(ValueError):
            ledger.scale_units([1, 2], [1], [1.0])

    def test_unit_percentile_pools_small_units(self):
        samples = list(range(20, 0, -1))
        p = ledger.unit_percentile(samples, [10, 10], 50)
        self.assertEqual((p.value, p.samples, p.beyond), (10, 20, 10))
        with self.assertRaises(ValueError):
            ledger.unit_percentile(samples, [10], 50)

    def test_read_decisions_keeps_order(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            ".test_decisions.bin")
        try:
            with open(path, "wb") as f:
                array("q", [5, TWO_POW_32 + 1, 3]).tofile(f)
            self.assertEqual(list(ledger.read_decisions(path)),
                             [5, TWO_POW_32 + 1, 3])
        finally:
            os.remove(path)


if __name__ == "__main__":
    unittest.main()
