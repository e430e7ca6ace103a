"""Tests of the benchmark harness's own rules (perfstats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


def span(id, parent, start, end, thread=1, name="x", cpu=None, count=0):
    cpu_start, cpu_end = cpu if cpu else (start, end)
    return {"id": id, "parent": parent, "op": -1, "thread": thread,
            "name": name, "wall_start": start, "wall_end": end,
            "cpu_start": cpu_start, "cpu_end": cpu_end, "count": count}


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        # 200 samples: nearest rank of p95 is 190, 10 lie beyond.
        self.assertEqual(perfstats.tail_percentile(200), 95)
        self.assertEqual(perfstats.samples_beyond(200, 95), 10)

    def test_falls_back_to_the_highest_percentile_that_has_them(self):
        # 100 samples: p90 has rank 90 and 10 beyond; p91 only 9.
        self.assertEqual(perfstats.tail_percentile(100), 90)
        self.assertEqual(perfstats.samples_beyond(100, 91), 9)
        # 40 samples: p75 has rank 30 and 10 beyond.
        self.assertEqual(perfstats.tail_percentile(40), 75)

    def test_too_few_samples_give_no_percentile(self):
        self.assertEqual(perfstats.tail_percentile(20), 50)
        self.assertIsNone(perfstats.tail_percentile(19))
        self.assertIsNone(perfstats.tail_percentile(0))

    def test_every_answer_leaves_ten_beyond(self):
        for n in range(20, 1000):
            pct = perfstats.tail_percentile(n)
            self.assertGreaterEqual(perfstats.samples_beyond(n, pct), 10)
            if pct < 95:
                self.assertLess(perfstats.samples_beyond(n, pct + 1), 10)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(perfstats.nearest_rank(values, 50), 50)
        self.assertEqual(perfstats.nearest_rank(values, 95), 95)
        self.assertEqual(perfstats.nearest_rank([7], 95), 7)
        with self.assertRaises(ValueError):
            perfstats.nearest_rank([], 50)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # job [0,100) > bundle [10,60) > build [20,30), interp [30,50);
        # job > core [60,95).
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30),
                 span(4, 2, 30, 50), span(5, 1, 60, 95)]
        selfs = perfstats.self_times(spans)
        self.assertEqual(selfs[1][0], 100 - 50 - 35)
        self.assertEqual(selfs[2][0], 50 - 10 - 20)
        self.assertEqual(selfs[3][0], 10)
        self.assertEqual(selfs[5][0], 35)
        # Self times partition the root's interval.
        self.assertEqual(sum(w for w, _ in selfs.values()), 100)

    def test_overlapping_children_on_other_threads(self):
        # A dispatch [0,100) whose jobs run in parallel on two workers:
        # [0,70) and [5,90). Their union covers 90 of the dispatch.
        spans = [span(1, 0, 0, 100, thread=1, cpu=(0, 3)),
                 span(2, 1, 0, 70, thread=2), span(3, 1, 5, 90, thread=3)]
        selfs = perfstats.self_times(spans)
        self.assertEqual(selfs[1][0], 10)
        # Workers' CPU is not the dispatching thread's.
        self.assertEqual(selfs[1][1], 3)

    def test_child_cpu_is_subtracted_on_the_same_thread(self):
        spans = [span(1, 0, 0, 100, cpu=(0, 80)),
                 span(2, 1, 10, 60, cpu=(5, 45))]
        self.assertEqual(perfstats.self_times(spans)[1], (50, 40))

    def test_covered_merges_and_clips(self):
        self.assertEqual(perfstats.covered((0, 10), [(-5, 2), (1, 4),
                                                     (8, 20)]), 6)
        self.assertEqual(perfstats.covered((0, 10), []), 0)
        self.assertEqual(perfstats.covered((0, 10), [(10, 12)]), 0)


class SweepShape(unittest.TestCase):
    def test_tail_idle_after_the_queue_drains(self):
        # Two workers. The last job starts at 40 (queue drained); worker
        # 2 ends at 50 and idles until the slowest job ends at 100.
        spans = [span(1, 0, 0, 100, name="sweep.dispatch"),
                 span(2, 1, 0, 40, thread=2), span(3, 1, 0, 30, thread=3),
                 span(4, 1, 30, 100, thread=3), span(5, 1, 40, 50, thread=2)]
        busy, util, tail = perfstats.sweep_shape(spans, threads=2)
        self.assertAlmostEqual(busy, 150e-9)
        self.assertAlmostEqual(util, 150 / 200)
        self.assertAlmostEqual(tail, 50e-9)

    def test_workers_without_a_job_idle_from_the_drain(self):
        spans = [span(1, 0, 0, 10, name="sweep.dispatch"),
                 span(2, 1, 2, 10, thread=2)]
        _, _, tail = perfstats.sweep_shape(spans, threads=4)
        self.assertAlmostEqual(tail, 3 * 8e-9)


class MetricNames(unittest.TestCase):
    def test_accepts_the_allowed_alphabet(self):
        for name in ("wall_s", "core.self_s.noreba", "a-b.c_d", "9lives",
                     "x" * 64):
            self.assertTrue(perfstats.valid_metric_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "_lead", ".lead", "has space", "a/b", "a:b",
                     "x" * 65, "café", None, 3):
            self.assertFalse(perfstats.valid_metric_name(name), name)

    def test_every_layer_metric_name_is_valid(self):
        metrics = perfstats.layer_metrics([], {}, 4, 1.0, 1.0, 1.0)
        for name in metrics:
            self.assertTrue(perfstats.valid_metric_name(name), name)

    def test_layer_metrics_are_the_declared_ones(self):
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCHMARK.json")
        with open(path) as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        metrics = perfstats.layer_metrics([], {}, 4, 1.0, 1.0, 1.0)
        self.assertEqual(set(metrics), declared)


class LayerMetrics(unittest.TestCase):
    def test_from_a_small_trace(self):
        spans = [
            span(1, 0, 0, 1000, name="sweep.dispatch", cpu=(0, 0)),
            span(2, 1, 0, 900, thread=2, name="sweep.job"),
            span(3, 2, 100, 300, thread=2, name="interp.run", count=4000),
            span(4, 2, 300, 800, thread=2, name="core.noreba", count=2000),
            span(5, 2, 800, 850, thread=2, name="result_store.save",
                 count=0),
        ]
        counters = {"design": {"noreba": {"insts": 30, "cycles": 40,
                                          "stall_head_branch": 10}},
                    "bundles_opened": 2, "bundles_opened_used": 1}
        m = perfstats.layer_metrics(spans, counters, threads=1,
                                    traced_wall_s=1.1e-6,
                                    traced_cpu_s=1000e-9,
                                    untraced_wall_s=1.0e-6)
        self.assertAlmostEqual(m["interp.run_s"], 200e-9)
        self.assertAlmostEqual(m["interp.minsts_per_s"],
                               4000 / 1e6 / 200e-9)
        self.assertAlmostEqual(m["core.self_s.noreba"], 500e-9)
        self.assertEqual(m["core.jobs"], 1)
        self.assertAlmostEqual(m["core.kcycles_per_cpu_s"], 2 / 500e-9)
        self.assertAlmostEqual(m["design.ipc.noreba"], 0.75)
        self.assertAlmostEqual(m["design.stall_head_branch_share.noreba"],
                               0.25)
        self.assertEqual(m["design.ipc.inorder"], 0.0)
        self.assertEqual(m["trace_store.used_share"], 0.5)
        self.assertEqual(m["trace_store.publish_ok_share"], 1.0)
        self.assertAlmostEqual(m["sweep.utilization"], 0.9)
        # The job span (900 ns of CPU) is the only outermost worker span.
        self.assertAlmostEqual(m["trace.unattributed_share"], 0.1)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.1)


if __name__ == "__main__":
    unittest.main()
