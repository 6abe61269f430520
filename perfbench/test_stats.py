"""Tests for the benchmark's own arithmetic.

Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`.
"""

import statistics
import unittest

import stats


class QuantileIndex(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(stats.quantile_index(100, 0.99), 98)
        self.assertEqual(stats.quantile_index(100, 0.5), 49)
        self.assertEqual(stats.quantile_index(101, 0.99), 99)
        self.assertEqual(stats.quantile_index(1, 0.99), 0)
        self.assertEqual(stats.quantile_index(4, 1.0), 3)
        # 0.29 * 100 is 28.999999999999996 in floating point.
        self.assertEqual(stats.quantile_index(100, 0.29), 28)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.quantile_index(0, 0.5)
        with self.assertRaises(ValueError):
            stats.quantile_index(10, 0.0)

    def test_percentile_sorts(self):
        samples = list(range(1000, 0, -1))
        self.assertEqual(stats.percentile(samples, 0.99), 990)
        self.assertEqual(stats.percentile(samples, 0.5), 500)
        self.assertEqual(stats.percentile([7.0, 3.0, 5.0], 0.99), 7.0)


class Spread(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)

    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        expected = (q3 - q1) / statistics.median(values)
        self.assertAlmostEqual(stats.spread(values), expected)

    def test_known_value(self):
        # Exclusive quartiles of 1..9 are 2.5 and 7.5, the median is 5.
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 1.0)

    def test_constant_and_single(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)
        self.assertEqual(stats.spread([4.0]), 0.0)


class SelfTime(unittest.TestCase):
    def span(self, start, end, parent=-1, name="x"):
        return {"name": name, "start": start, "end": end, "parent": parent}

    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([self.span(1.0, 3.5)]), [2.5])

    def test_disjoint_children(self):
        spans = [self.span(0, 10), self.span(1, 3, 0), self.span(5, 6, 0)]
        self.assertEqual(stats.self_times(spans), [7, 2, 1])

    def test_overlapping_children_are_merged(self):
        # Children [1,4] and [3,6] overlap: together they cover [1,6].
        spans = [self.span(0, 10), self.span(1, 4, 0), self.span(3, 6, 0)]
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_children_clipped_to_parent(self):
        spans = [self.span(2, 4), self.span(1, 3, 0)]
        self.assertEqual(stats.self_times(spans)[0], 1)

    def test_grandchildren_count_only_once(self):
        spans = [self.span(0, 10), self.span(2, 8, 0), self.span(3, 5, 1)]
        self.assertEqual(stats.self_times(spans), [4, 4, 2])

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(stats.union_length([(5, 6), (0, 1), (0.5, 0.75)]), 2)

    def test_by_name(self):
        spans = [
            self.span(0, 4, name="cells"),
            self.span(1, 3, 0, name="circuit"),
            self.span(5, 6, name="cells"),
        ]
        self.assertEqual(stats.self_time_by_name(spans), {"cells": 3, "circuit": 2})


class Coverage(unittest.TestCase):
    def test_ratio_and_remainder(self):
        spans = [
            {"name": "a", "start": 0.0, "end": 4.0, "parent": -1},
            {"name": "b", "start": 1.0, "end": 2.0, "parent": 0},
            {"name": "c", "start": 5.0, "end": 8.0, "parent": -1},
        ]
        cov, rest = stats.coverage(spans, 10.0)
        self.assertAlmostEqual(cov, 0.7)
        self.assertAlmostEqual(rest, 3.0)

    def test_no_spans(self):
        self.assertEqual(stats.coverage([], 2.0), (0.0, 2.0))


class NetShare(unittest.TestCase):
    samples = [(0.0, 10.0), (1.0, 10.5), (2.0, 10.5), (3.0, 14.0)]

    def test_window_around_t(self):
        # 0.5 s stolen of 2 CPU-seconds in [0, 1].
        self.assertAlmostEqual(stats.net_share(self.samples, 0.5, 2), 0.75)
        self.assertAlmostEqual(stats.net_share(self.samples, 1.5, 2), 1.0)

    def test_outside_uses_edge_windows(self):
        self.assertAlmostEqual(stats.net_share(self.samples, -1.0, 2), 0.75)
        self.assertAlmostEqual(stats.net_share(self.samples, 9.0, 2), 0.1)

    def test_too_few_samples(self):
        self.assertEqual(stats.net_share([(0.0, 1.0)], 0.0, 2), 1.0)


class Stamps(unittest.TestCase):
    def test_differences(self):
        a = {"nproc": 2, "rustc": "1.80", "git_commit": "abc"}
        keys = ("nproc", "rustc")
        self.assertEqual(stats.stamp_differences(a, dict(a, git_commit="def"), keys), [])
        self.assertEqual(stats.stamp_differences(a, dict(a, nproc=4), keys), ["nproc"])
        self.assertEqual(stats.stamp_differences(a, {"nproc": 2}, keys), ["rustc"])

    def test_machine_keys_leave_out_the_commit(self):
        self.assertNotIn("git_commit", stats.MACHINE_KEYS)
        self.assertIn("nproc", stats.MACHINE_KEYS)


if __name__ == "__main__":
    unittest.main()
