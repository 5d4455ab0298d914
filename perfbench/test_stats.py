"""Unit tests of the benchmark's order statistics.

    python3 perfbench/test_stats.py
"""

import statistics as pystats
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_endpoints_and_median(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.median(values), 3.0)

    def test_interpolates_between_ranks(self):
        # rank = 0.9 * 3 = 2.7 -> 30 + 0.7 * (40 - 30)
        self.assertAlmostEqual(stats.percentile([10, 20, 30, 40], 90), 37.0)
        self.assertAlmostEqual(stats.median([1, 2, 3, 4]), 2.5)

    def test_median_matches_the_standard_library(self):
        for values in ([3], [2, 9], [7, 1, 4], [8, 8, 1, 0, 5, 2]):
            self.assertAlmostEqual(stats.median(values),
                                   pystats.median(values))

    def test_single_sample(self):
        self.assertEqual(stats.percentile([42.0], 99.9), 42.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class TailTest(unittest.TestCase):
    def test_samples_beyond(self):
        # n = 100: the p90 rank is 89.1, so indices 90..99 lie beyond it.
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(100, 99), 1)
        self.assertEqual(stats.samples_beyond(21, 50), 10)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(0))
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(41), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(201), 95.0)
        self.assertEqual(stats.tail_percentile(1001), 99.0)
        self.assertEqual(stats.tail_percentile(10001), 99.9)

    def test_every_reported_tail_is_supported(self):
        for n in range(1, 3000, 7):
            q = stats.tail_percentile(n)
            if q is not None:
                self.assertGreaterEqual(stats.samples_beyond(n, q),
                                        stats.MIN_BEYOND)


class SummarizeTest(unittest.TestCase):
    def test_counts_and_quartiles(self):
        summary = stats.summarize([float(i) for i in range(1, 101)])
        self.assertEqual(summary["n"], 100)
        self.assertAlmostEqual(summary["median"], 50.5)
        self.assertAlmostEqual(summary["q1"], 25.75)
        self.assertAlmostEqual(summary["q3"], 75.25)
        self.assertEqual(summary["tail_q"], 90.0)
        self.assertAlmostEqual(summary["tail"], 90.1)

    def test_small_sample_has_no_tail(self):
        summary = stats.summarize([1.0, 2.0, 3.0])
        self.assertEqual(summary["n"], 3)
        self.assertNotIn("tail", summary)

    def test_empty_sample(self):
        self.assertEqual(stats.summarize([]), {"n": 0})


if __name__ == "__main__":
    unittest.main()
