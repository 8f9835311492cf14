"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import unittest
from array import array

import grid
from stats import beyond, highest_percentile, percentile, quartile_spread
from tracer import NO_PARENT, Tracer, _ThreadSpans, covered, self_times, summarise


class PercentileTest(unittest.TestCase):
    def test_highest_rung_with_ten_beyond(self):
        samples = list(range(1, 101))
        self.assertEqual(highest_percentile(samples), (90.0, 90, 100))
        self.assertEqual(highest_percentile(list(range(1, 1001))), (99.0, 990, 1000))
        self.assertEqual(highest_percentile(list(range(1, 10001))), (99.9, 9990, 10000))

    def test_one_sample_short_drops_a_rung(self):
        self.assertEqual(highest_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(beyond(999, 99.0), 9)

    def test_too_few_samples(self):
        self.assertIsNone(highest_percentile([3.0] * 15))

    def test_nearest_rank_ignores_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(samples, 50), 3.0)
        self.assertEqual(percentile(samples, 100), 5.0)
        self.assertEqual(percentile(samples, 1), 1.0)

    def test_quartile_spread(self):
        self.assertAlmostEqual(quartile_spread([10.0] * 9), 0.0)
        self.assertGreater(quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]), 0.0)


def _thread(tid, spans, cross=None):
    """_ThreadSpans from (name id, span id, parent id, start, end) rows."""
    t = _ThreadSpans(tid)
    for nid, sid, parent, start, end in spans:
        t.name.append(nid)
        t.sid.append(sid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    t.cross_parent = cross or {}
    return t


class SelfTimeTest(unittest.TestCase):
    # main thread: root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    NAMES = ["bench.run", "zeta_char.zeta_char", "zeta_czp.zeta_czp", "padic.unit_power"]

    def main_thread(self):
        return _thread(
            1,
            [
                (2, 2, 1, 2.0, 3.0),
                (1, 1, 0, 1.0, 4.0),
                (2, 3, 0, 5.0, 9.0),
                (0, 0, NO_PARENT, 0.0, 10.0),
            ],
        )

    def test_self_times(self):
        # parents index into the same lists: root, a, leaf, b
        selfs = self_times([NO_PARENT, 0, 1, 0], [10.0, 3.0, 1.0, 4.0])
        self.assertEqual(selfs, [3.0, 2.0, 1.0, 4.0])

    def test_summary_of_hand_built_tree(self):
        s = summarise(self.NAMES, [self.main_thread()])
        self.assertEqual(s["self_s"]["bench.run"], 3.0)
        self.assertEqual(s["self_s"]["zeta_char.zeta_char"], 2.0)
        self.assertEqual(s["self_s"]["zeta_czp.zeta_czp"], 5.0)
        self.assertEqual(s["total_s"]["zeta_czp.zeta_czp"], 5.0)
        self.assertEqual(s["calls"]["zeta_czp.zeta_czp"], 2)
        # self times of a thread add up to its outermost spans
        self.assertEqual(s["thread_self"][1], 10.0)
        self.assertEqual(s["under"][("zeta_char.zeta_char", "zeta_czp.zeta_czp")], 1)
        self.assertEqual(s["with_child"][("bench.run", "zeta_czp.zeta_czp")], 1)

    def test_cross_thread_children_are_waited_on_not_subtracted(self):
        # a pool thread runs two spans submitted from root (thread 1, span 0)
        pool = _thread(
            7,
            [(1, 0, NO_PARENT, 2.0, 6.0), (1, 1, NO_PARENT, 5.0, 12.0)],
            cross={0: (1, 0), 1: (1, 0)},
        )
        s = summarise(self.NAMES, [self.main_thread(), pool])
        self.assertEqual(s["self_s"]["bench.run"], 3.0)
        # union [2, 12] clipped to the root's [0, 10]
        self.assertEqual(s["wait_s"]["bench.run"], 8.0)
        self.assertEqual(s["thread_self"][7], 11.0)

    def test_covered(self):
        self.assertEqual(covered([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(covered([]), 0.0)

    def test_wrapper_records_nesting(self):
        tracer = Tracer()
        inner = tracer.wrap("zeta_czp.zeta_czp", lambda x: x + 1)
        outer = tracer.wrap("zeta_char.zeta_char", lambda x: inner(x) + inner(x))
        self.assertEqual(outer(1), 4)
        (spans,) = tracer.threads()
        self.assertEqual(list(spans.parent), [0, 0, NO_PARENT])
        s = summarise(tracer.names, tracer.threads())
        self.assertEqual(s["calls"], {"zeta_czp.zeta_czp": 2, "zeta_char.zeta_char": 1})
        self.assertEqual(s["under"][("zeta_char.zeta_char", "zeta_czp.zeta_czp")], 2)
        self.assertIsInstance(spans.start, array)


class GridTest(unittest.TestCase):
    def test_deterministic_at_a_seed(self):
        self.assertEqual(grid.generate(5), grid.generate(5))

    def test_differs_across_seeds(self):
        self.assertNotEqual(grid.generate(5), grid.generate(6))

    def test_no_repeated_call(self):
        items = grid.generate(5)
        self.assertEqual(len({item for item in items}), len(items))
        self.assertEqual(len(items), sum(sum(m) for m in grid.MIX.values()))

    def test_shapes(self):
        for item in grid.generate(9):
            p, x = item[1], item[3]
            if item[0] == "czp":
                # v_p(x) in {-1, -2, -3}
                k = 0
                den = x.denominator
                while den % p == 0:
                    den //= p
                    k += 1
                self.assertIn(k, (1, 2, 3))
                self.assertNotEqual(x.numerator % p, 0)
            else:
                self.assertTrue(grid.MIX[p][1] + grid.MIX[p][2] > 0)
                self.assertNotEqual(x.denominator % p, 0)
                self.assertIn(item[4], (1, 2))
                self.assertTrue(0 <= item[5] < p - 1)


if __name__ == "__main__":
    unittest.main()
