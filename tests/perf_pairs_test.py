#!/usr/bin/env python3
"""Pins tools/perf_pairs.py's resolution rule on synthetic samples.

Two shapes come from measured gate runs: perfbench paper-grid `setup_s`,
whose base interquartile range is 20-25% of its median against a 0.25
bound (an A/B whose change never ran set-up read 1.29x), and sharded-cell
`wall_s`, whose base IQR once reached 55% of its median. Both must run more
pairs instead of ruling at five; a tight sample must rule at five. The
pairs a change won are counted pair by pair, a tie for neither side.

    python3 tests/perf_pairs_test.py
"""

import importlib.util
import os
import statistics
import unittest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "perf_pairs.py")
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}
WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "accesses_per_s", "better": "higher", "bound": 0.25}


def result(metric, value):
    return {"metrics": {metric["name"]: {"value": value}}}


def pairs_run(metric, base, change):
    """How many pairs run_pairs runs when pair i reads base[i % n], change[i % n]."""
    def run_pair(i):
        return result(metric, base[i % len(base)]), result(metric, change[i % len(change)])
    runs, _ = perf_pairs.run_pairs([metric], run_pair)
    return len(runs)


class RuleTest(unittest.TestCase):
    def relative_iqr(self, samples):
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / statistics.median(samples)

    def test_setup_s_spread_extends_instead_of_ruling(self):
        base = [0.085, 0.095, 0.100, 0.110, 0.118]
        self.assertTrue(0.20 <= self.relative_iqr(base) <= 0.25)
        # An A/A sample and the 1.29x A/B both sit within one IQR of 1.25.
        for factor in (1.05, 1.29):
            change = [v * factor for v in base]
            ruling = perf_pairs.rule(SETUP, base, change)
            self.assertTrue(ruling["unresolved"], factor)
            self.assertNotEqual(ruling["verdict"], "ok")
            self.assertGreater(pairs_run(SETUP, base, change), perf_pairs.PAIRS)

    def test_sharded_wall_spread_extends_instead_of_ruling(self):
        base = [0.9, 1.1, 1.52, 1.8, 2.1]
        self.assertGreater(self.relative_iqr(base), 0.5)
        ruling = perf_pairs.rule(WALL, base, list(base))
        self.assertEqual(ruling["verdict"], "unresolved")
        self.assertGreater(ruling["resolvable"], 1.25)
        # The spread never narrows, so the workload runs to the cap.
        self.assertEqual(pairs_run(WALL, base, list(base)), perf_pairs.MAX_PAIRS)

    def test_tight_sample_rules_at_five_pairs(self):
        base = [10.0, 10.1, 10.2, 10.3, 10.4]
        ruling = perf_pairs.rule(WALL, base, [v * 1.02 for v in base])
        self.assertEqual(ruling["verdict"], "ok")
        self.assertAlmostEqual(ruling["ratio"], 1.02)
        self.assertLess(ruling["resolvable"], 1.05)
        self.assertEqual(pairs_run(WALL, base, [v * 1.02 for v in base]), perf_pairs.PAIRS)

    def test_tight_regression_is_worse_at_five_pairs(self):
        base = [10.0, 10.1, 10.2, 10.3, 10.4]
        change = [v * 1.6 for v in base]
        self.assertEqual(perf_pairs.rule(WALL, base, change)["verdict"], "WORSE")
        self.assertEqual(pairs_run(WALL, base, change), perf_pairs.PAIRS)
        rate = [1000.0, 1010.0, 1020.0, 1030.0, 1040.0]
        self.assertEqual(perf_pairs.rule(RATE, rate, [v * 0.5 for v in rate])["verdict"],
                         "WORSE")

    def test_bounds_come_from_the_metric(self):
        # The rule reads the metric's own bound; nothing in it widens one.
        base = [10.0, 10.1, 10.2, 10.3, 10.4]
        change = [v * 1.2 for v in base]
        self.assertEqual(perf_pairs.rule(WALL, base, change)["verdict"], "ok")
        tight = dict(WALL, bound=0.15)
        self.assertEqual(perf_pairs.rule(tight, base, change)["verdict"], "WORSE")


class PairsWonTest(unittest.TestCase):
    def test_counts_strict_wins_in_the_metrics_direction(self):
        base = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 11.0, 10.0, 9.5]
        self.assertEqual(perf_pairs.pairs_won(WALL, base, change), 2)
        # The same samples read as a higher-is-better metric: one win.
        self.assertEqual(perf_pairs.pairs_won(RATE, base, change), 1)

    def test_a_tie_counts_for_neither_side(self):
        base = [5.0, 6.0, 7.0]
        self.assertEqual(perf_pairs.pairs_won(WALL, base, list(base)), 0)
        self.assertEqual(perf_pairs.pairs_won(RATE, base, list(base)), 0)

    def test_pairs_are_matched_by_index_not_by_rank(self):
        # Sorted, no change sample would beat its base counterpart; paired,
        # the first does.
        base = [3.0, 1.0]
        change = [2.0, 4.0]
        self.assertEqual(perf_pairs.pairs_won(WALL, sorted(base), sorted(change)), 0)
        self.assertEqual(perf_pairs.pairs_won(WALL, base, change), 1)


if __name__ == "__main__":
    unittest.main()
