"""Tests of the result records: the final line, the result file round
trip and the compare verdicts."""

import json
import os
import tempfile
import unittest

import results

BENCHMARK = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rev_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "matching.steps", "unit": "count",
                   "better": "higher"}],
}


def record(workload, seed, setup, rate, trace=0):
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": True, "attempted": 10, "failed": 0,
            "stamp": {"commit": "abc", "nproc": 4},
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "rev_per_s": {"value": rate, "unit": "1/s"}}}


class FinalLineTest(unittest.TestCase):
    def test_exact_keys_and_declared_order(self):
        rec = record("wiki", 1, 0.5, 100.0)
        rec["metrics"] = dict(reversed(list(rec["metrics"].items())))
        line = json.loads(results.final_line(rec, BENCHMARK, 0))
        self.assertEqual(list(line), list(results.RESULT_KEYS))
        self.assertEqual(list(line["metrics"]), ["setup_s", "rev_per_s"])
        self.assertEqual(line["metrics"]["rev_per_s"],
                         {"value": 100.0, "unit": "1/s"})
        self.assertTrue(line["correct"])

    def test_failures_make_the_run_incorrect(self):
        rec = record("wiki", 1, 0.5, 100.0)
        rec["failed"] = 1
        self.assertFalse(json.loads(
            results.final_line(rec, BENCHMARK, 0))["correct"])

    def test_missing_or_undeclared_metric_is_refused(self):
        rec = record("wiki", 1, 0.5, 100.0)
        del rec["metrics"]["setup_s"]
        with self.assertRaises(ValueError):
            results.final_line(rec, BENCHMARK, 0)
        rec = record("wiki", 1, 0.5, 100.0)
        with self.assertRaises(ValueError):  # traced runs report per_layer
            results.final_line(rec, BENCHMARK, 1)


class ResultFileTest(unittest.TestCase):
    def test_round_trip(self):
        runs = [record("wiki", s, 0.5 + s / 100, 100.0 + s) for s in range(3)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.jsonl")
            for run in runs:
                results.write_record(path, run)
            self.assertEqual(results.read_records(path), runs)


class CompareTest(unittest.TestCase):
    def runs(self, rates, setup=0.5):
        return [record("wiki", i, setup, r) for i, r in enumerate(rates)]

    def verdicts(self, old, new):
        rows = results.compare(old, new, BENCHMARK)
        return {r["metric"]: r["verdict"] for r in rows}

    def test_quartiles_match_statistics_module(self):
        self.assertEqual(results.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (1.5, 3.0, 4.5))
        self.assertEqual(results.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_steady_and_unchanged_is_ok(self):
        steady = [100.0, 101.0, 99.0, 100.5, 99.5]
        v = self.verdicts(self.runs(steady), self.runs(steady))
        self.assertEqual(v, {"setup_s": "ok", "rev_per_s": "ok"})

    def test_worse_beyond_bound_is_a_regression(self):
        old = self.runs([100.0, 101.0, 99.0, 100.5, 99.5])
        new = self.runs([80.0, 81.0, 79.0, 80.5, 79.5])
        self.assertEqual(self.verdicts(old, new)["rev_per_s"], "regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        old = self.runs([100.0, 140.0, 70.0, 120.0, 85.0])
        new = self.runs([95.0, 135.0, 72.0, 118.0, 80.0])
        self.assertEqual(self.verdicts(old, new)["rev_per_s"], "unresolved")

    def test_noisy_but_every_new_run_better_is_not_unresolved(self):
        old = self.runs([100.0, 140.0, 70.0, 120.0, 85.0])
        new = self.runs([200.0, 260.0, 150.0, 230.0, 170.0])
        self.assertEqual(self.verdicts(old, new)["rev_per_s"], "ok")

    def test_traced_runs_are_not_compared(self):
        old = self.runs([100.0]) + [record("wiki", 9, 0.5, 1.0, trace=1)]
        rows = results.compare(old, self.runs([100.0]), BENCHMARK)
        self.assertEqual(rows[1]["runs"], (1, 1))


if __name__ == "__main__":
    unittest.main()
