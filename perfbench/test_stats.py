"""Tests for the benchmark's own code: python3 perfbench/test_stats.py

Run from the repository root.  TickCoverage runs perfbench_sim itself and
is skipped until run.py has built it once.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))

    def test_single_value(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))


class TailPercentile(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))

    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        random.Random(3).shuffle(values)
        pct, value = stats.tail_percentile(values)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_smallest_sample_count(self):
        pct, value = stats.tail_percentile(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)


class BestTimes(unittest.TestCase):
    def test_fastest_run_per_point(self):
        rounds = [[3.0, 1.0], [2.0, 4.0], [5.0, 0.5]]
        self.assertEqual(stats.best_times(rounds), [2.0, 0.5])


class Fold(unittest.TestCase):
    def test_known_value(self):
        # FNV-1a 64 of the empty string is the offset basis.
        self.assertEqual(stats.fold({}), "cbf29ce484222325")
        # FNV-1a 64 of "a=1\n".
        h = 0xCBF29CE484222325
        for b in b"a=1\n":
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        self.assertEqual(stats.fold({"a": "1"}), f"{h:016x}")

    def test_order_independent_and_value_sensitive(self):
        a = stats.fold({"x.cycles": "10", "x.hash": "ff"})
        self.assertEqual(a, stats.fold({"x.hash": "ff", "x.cycles": "10"}))
        self.assertNotEqual(a, stats.fold({"x.cycles": "11", "x.hash": "ff"}))


class ServiceLayers(unittest.TestCase):
    def test_from_raw_times(self):
        raw = {"inproc_s": [1.0, 3.0, 2.0], "sweep_workers": 1,
               "rounds": [[8.0], [10.0], [12.0]]}
        got = run.service_layers("sweep", raw)
        self.assertEqual(got["service.point_inproc_s"], 2.0)
        # 1 - (1 + 3 + 2) / (median batch wall 10 x 1 worker)
        self.assertAlmostEqual(got["service.overhead_frac"], 0.4)
        self.assertEqual(
            run.service_layers("spec", raw)["service.overhead_frac"], 0.0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(run.make_jobs(w, 5), run.make_jobs(w, 5))

    def test_sweep_points_are_distinct(self):
        pts = run.make_jobs("sweep", 2)["points"]
        self.assertEqual(len(pts), 12)
        keys = {tuple(sorted(p.items())) for p in pts}
        self.assertEqual(len(keys), 12)


class TickCoverage(unittest.TestCase):
    """perfbench_sim's tick-coverage self-check: the tick spans against
    the traced rounds' wall time, taken by a separate clock."""

    def setUp(self):
        root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.binary = os.path.join(root, "perfbench", "perfbench_sim")
        if not os.access(self.binary, os.X_OK):
            self.skipTest("perfbench_sim is not built; run run.py once")
        self.work = os.path.abspath(os.path.join(root, "work",
                                                 "test-coverage"))
        os.makedirs(self.work, exist_ok=True)

    def layers(self, gap_ms):
        jobs = os.path.join(self.work, "jobs.json")
        with open(jobs, "w") as f:
            json.dump({"batch": "t", "defaults": {"checkpoint_every": 0},
                       "points": [{"workload": "164.gzip", "scale": 600}]},
                      f)
        out = os.path.join(self.work, "result.json")
        subprocess.run([self.binary, "--workload", "spec", "--jobs", jobs,
                        "--seconds", "0.5", "--trace", "1",
                        "--work-dir", self.work, "--out", out,
                        "--untimed-gap-ms", str(gap_ms)],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            return json.load(f)["layers"]

    def test_spans_cover_the_traced_rounds(self):
        self.assertEqual(run.self_check("spec", self.layers(0)), [])

    def test_untimed_gap_trips_the_check(self):
        problems = run.self_check("spec", self.layers(200))
        self.assertTrue(any("tick spans" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
