#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py            # all, including smoke runs
    python3 perfbench/test_run.py Pure       # pure-Python tests only

The smoke tests build the benchmark binary (about a minute on a cold tree) and run
each workload at a tiny size through the same code path as a real run.
"""

import json
import os
import random
import re
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PureQuantile(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.quantile(values, 0.0), 1.0)
        self.assertEqual(run.quantile(values, 0.5), 3.0)
        self.assertEqual(run.quantile(values, 1.0), 5.0)
        self.assertAlmostEqual(run.quantile(values, 0.9), 4.6)
        self.assertEqual(run.quantile([7.0], 0.99), 7.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)

    def test_beyond_counts_samples_strictly_above(self):
        values = list(range(1, 1001))
        self.assertEqual(run.beyond(values, 0.99), 10)
        self.assertEqual(run.beyond(values, 0.5), 500)
        self.assertEqual(run.beyond([1.0] * 50, 0.9), 0)

    def test_tail_support_needs_ten_beyond(self):
        # 0..901: the p99 cut interpolates to 891.99, and 892..901 lie
        # beyond it; one sample fewer leaves nine.
        self.assertTrue(run.tail_supported(list(range(902)), 99))
        self.assertFalse(run.tail_supported(list(range(901)), 99))
        self.assertTrue(run.tail_supported(list(range(500)), 98))
        self.assertFalse(run.tail_supported([], 50))


class PureSchedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = run.make_schedule(7, 200.0, 2.0, 0.5)
        b = run.make_schedule(7, 200.0, 2.0, 0.5)
        c = run.make_schedule(8, 200.0, 2.0, 0.5)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_poisson_schedule_shape(self):
        sched = run.make_schedule(3, 500.0, 4.0, 0.25)
        dues = [d for d, _, _ in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(all(0 <= d < 4_000_000 for d in dues))
        self.assertLess(abs(len(sched) - 2000), 4 * 2000 ** 0.5)
        tracked = sum(1 for _, t, _ in sched if t)
        self.assertLess(abs(tracked - 500), 4 * 500 ** 0.5)

    def test_bodies_cover_loadgen_families_and_datasets(self):
        rng = random.Random(1)
        pairs = set()
        for _ in range(2000):
            body = json.loads(run.task_body(rng))
            pairs.add((body["family"], body["dataset"]))
            self.assertTrue(2 <= body["depth"] <= 31)
            self.assertTrue(0.1 <= body["dataset_fraction"] <= 1.0)
        self.assertEqual(pairs, {
            ("cnn", "cifar-10"), ("cnn", "imagenet"), ("mlp", "cifar-10"),
            ("mlp", "imagenet"), ("transformer", "europarl"),
            ("rnn", "europarl")})

    def test_schedule_file_round_trip_format(self):
        sched = run.make_schedule(5, 100.0, 0.5, 1.0)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.txt")
            run.write_schedule(path, sched)
            with open(path) as f:
                lines = f.read().splitlines()
        self.assertEqual(len(lines), len(sched))
        due, tracked, body = lines[0].split(" ", 2)
        self.assertEqual((int(due), tracked == "1", body), sched[0])


class PureAccounting(unittest.TestCase):
    LOAD = {
        "submits": {"due_us": [1000, 2000, 3000],
                    "send_us": [1000, 2500, 9000],
                    "done_us": [1300, 2800, 9400],
                    "status": [200, 429, -1]},
        "tracked": [{"ack_us": 1300, "placed_us": 7300,
                     "poll_late_us": [100, 0]},
                    {"ack_us": 5000, "placed_us": -1, "poll_late_us": []}],
        "stats": {"tasks_expired": 1, "tasks_rejected": 0,
                  "tasks_dispatched": 0},
    }

    def test_latency_is_timed_from_due(self):
        self.assertEqual(run.ack_ms(self.LOAD), [0.3, 0.8, 6.4])

    def test_lateness_covers_submits_and_polls(self):
        self.assertEqual(run.lateness_ms(self.LOAD),
                         [0.0, 0.5, 6.0, 0.1, 0.0])

    def test_placement_only_for_polled_dispatches(self):
        self.assertEqual(run.placement_ms(self.LOAD), [6.0])

    def test_outcome_classes(self):
        row = run.served_outcomes({"load": self.LOAD})
        self.assertEqual((row["sent"], row["ok200"], row["429"],
                          row["transport"], row["other"], row["expired"]),
                         (3, 1, 1, 1, 0, 1))


class PureManifest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.manifest = json.load(f)

    def test_keys_and_names(self):
        m = self.manifest
        self.assertEqual(set(m), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in m["workloads"]]
        names += [e["name"] for e in m["end_to_end"]]
        names += [p["name"] for p in m["per_layer"]]
        for n in names:
            self.assertRegex(n, self.NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(m["end_to_end"]), 16)
        self.assertLessEqual(len(m["per_layer"]), 128)
        self.assertTrue(2 <= len(m["workloads"]) <= 8)

    def test_manifest_matches_run_py(self):
        m = self.manifest
        self.assertEqual([w["name"] for w in m["workloads"]], run.WORKLOADS)
        self.assertEqual([(e["name"], e["unit"], e["better"])
                          for e in m["end_to_end"]], run.END_TO_END)
        self.assertEqual([(p["name"], p["unit"], p["better"])
                          for p in m["per_layer"]], run.PER_LAYER)
        for e in m["end_to_end"]:
            self.assertLessEqual(e["bound"], 0.25)
        setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(e["bound"] for e in m["end_to_end"]))


class Smoke(unittest.TestCase):
    """Each workload at a tiny size, through run_pass, traced and not."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.saved = (run.REPLAY_STREAMS, run.REPLAY_ARRIVALS,
                     run.SERVED_PHASES)
        run.REPLAY_STREAMS, run.REPLAY_ARRIVALS = 2, 100
        run.SERVED_PHASES = 1
        os.makedirs(run.RUNS_DIR, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=run.RUNS_DIR, prefix="smoke-")

    @classmethod
    def tearDownClass(cls):
        (run.REPLAY_STREAMS, run.REPLAY_ARRIVALS,
         run.SERVED_PHASES) = cls.saved
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def check(self, workload, seconds):
        for traced in (False, True):
            p = run.Pass(workload, 3, seconds, traced,
                         os.path.join(self.workdir, workload, str(traced)))
            self.assertEqual(p.checks.failures, [])
            self.assertGreater(p.attempted, 0)
            self.assertEqual(p.failed, 0)
            self.assertEqual(set(p.metrics), {n for n, _, _ in run.END_TO_END})
            for name, (value, samples) in p.metrics.items():
                self.assertGreater(value, 0.0, name)
                self.assertGreater(samples, 0, name)
            self.assertEqual(set(p.wall), {n for n, _, _ in run.BENCH_WALL})
            self.assertTrue(p.accounting)
            if traced:
                self.assertEqual(set(p.layers), {n for n, _, _ in run.LAYERS})

    def test_replay_drift(self):
        self.check("replay_drift", 0.5)

    def test_served_steady(self):
        self.check("served_steady", 4.0)

    def test_served_overload(self):
        self.check("served_overload", 1.5)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "Pure":
        suite = unittest.TestSuite(
            unittest.defaultTestLoader.loadTestsFromTestCase(c)
            for c in (PureQuantile, PureSchedule, PureAccounting,
                      PureManifest))
        sys.exit(not unittest.TextTestRunner(verbosity=2).run(
            suite).wasSuccessful())
    unittest.main(verbosity=2)
