"""Self-tests of the benchmark harness: the percentile rank rule, the
metric-name grammar, fail_frac accounting, and agreement between the
metric definitions and BENCHMARK.json.

    python3 perfbench/test_harness.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def fake_report(workload):
    """A report shaped like iokc_perfbench's, with round numbers: a 10 s
    window of four 2.5 s rounds; on sweep 25 cycles of 100 ms per round, on
    the serve workloads 100 lookups of 200 us, 10 analytics of 5 ms (2 of
    them list calls of 2 ms) and 10 writes of 400 us completing in every
    second."""
    samples = {"segment_end_s": [2.5, 5.0, 7.5, 10.0]}
    info = {}
    if workload == "sweep":
        info["ops_per_sample"] = "16"
        samples["cycle_ms"] = [100.0] * 100
        samples["cycle_t"] = [0.1 * (k + 1) for k in range(100)]
        samples["traced.cycle_ms"] = [110.0] * 100
        for part in harness.BREAKDOWN["sweep"][1]:
            samples[part] = [10.0] * 100
    else:
        for kind, count, us in (("lookup", 1000, 200.0),
                                ("analytic", 100, 5000.0),
                                ("write", 100, 400.0),
                                ("ep.list", 20, 2000.0)):
            samples[kind + "_us"] = [us] * count
            samples[kind + "_t"] = [10.0 * (k + 1) / count
                                    for k in range(count)]
        samples["traced.lookup_us"] = [210.0] * 1000
        for part in harness.BREAKDOWN[workload][1]:
            samples[part] = [40.0 if workload == "serve_read" else 80.0] * 10
    return {"setup_s": [0.3, 0.1, 0.2], "window_s": 10.0, "ops": 1200,
            "attempted": 1250, "failed": 0, "failures": {},
            "samples": samples, "values": {"repl.ack_timeouts": 0.0},
            "info": info, "digest": "0", "peak_rss_mib": 64.0}


class PercentileRankRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(harness.tail_percentile(19))
        self.assertEqual(harness.tail_percentile(20), 50)
        self.assertEqual(harness.tail_percentile(99), 50)
        self.assertEqual(harness.tail_percentile(100), 90)
        self.assertEqual(harness.tail_percentile(999), 90)
        self.assertEqual(harness.tail_percentile(1000), 99)
        self.assertEqual(harness.tail_percentile(9999), 99)
        self.assertEqual(harness.tail_percentile(10000), 99.9)

    def test_rank_is_exact_where_floats_are_not(self):
        # 0.9 * 100 == 90.00000000000001 would round the rank up to 91.
        self.assertEqual(harness.rank(100, 90), 90)
        self.assertEqual(harness.rank(1000, 99.9), 999)
        self.assertEqual(harness.beyond(100, 90), 10)

    def test_nearest_rank_values(self):
        values = list(range(100, 0, -1))
        self.assertEqual(harness.percentile(values, 90), 90)
        self.assertEqual(harness.percentile(values, 99), 99)
        self.assertEqual(harness.percentile(values, 50), 50.5)  # the median
        with self.assertRaises(ValueError):
            harness.percentile([], 90)


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "svc.dispatch_sql_point_us", "9lives",
                     "a" * 64, "serve_read.unaccounted_pct", "x-y"):
            self.assertTrue(harness.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "a" * 65, "has space", "p99%",
                    "a/b"):
            self.assertFalse(harness.valid_name(bad), bad)
        for good in ("ms", "1/s", "%", "count/write", "B/req"):
            self.assertTrue(harness.valid_unit(good), good)
        for bad in ("", "a" * 17, "m s"):
            self.assertFalse(harness.valid_unit(bad), bad)

    def test_every_defined_metric_is_valid_and_unique(self):
        names = [m[0] for m in harness.END_TO_END + harness.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better, *_ in harness.END_TO_END + harness.PER_LAYER:
            self.assertTrue(harness.valid_name(name), name)
            self.assertTrue(harness.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_benchmark_json_matches_the_definitions(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(harness.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], harness.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], harness.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class FailFracAccounting(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(harness.fail_frac(10, 0), 0.0)
        self.assertEqual(harness.fail_frac(10, 1), 0.1)
        self.assertEqual(harness.fail_frac(0, 0), 1.0)
        self.assertEqual(harness.counted(0, 0), (1, 1))
        self.assertEqual(harness.counted(7, 2), (7, 2))

    def test_result_line(self):
        report = fake_report("serve_read")
        line = run.result_line(report, {"setup_s": 0.2}, {"setup_s": "s"})
        self.assertEqual(line, {"correct": True, "attempted": 1250,
                                "failed": 0, "metrics": {
                                    "setup_s": {"value": 0.2, "unit": "s"}}})
        report["failed"] = 3
        self.assertFalse(run.result_line(report, {}, {})["correct"])
        report["attempted"] = 0
        line = run.result_line(report, {}, {})
        self.assertEqual((line["attempted"], line["failed"], line["correct"]),
                         (1, 1, False))


class Metrics(unittest.TestCase):
    def test_end_to_end_covers_every_gated_metric(self):
        for workload in harness.WORKLOADS:
            values = harness.end_to_end(fake_report(workload), workload)
            self.assertEqual(sorted(values),
                             sorted(m[0] for m in harness.END_TO_END))
            self.assertTrue(all(v > 0 for v in values.values()))
        values = harness.end_to_end(fake_report("serve_read"), "serve_read")
        self.assertEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["ops_per_s"], 120.0)
        self.assertAlmostEqual(values["latency_p50_ms"], 2.0)  # list
        self.assertAlmostEqual(values["latency_p90_ms"], 0.4)
        values = harness.end_to_end(fake_report("sweep"), "sweep")
        self.assertAlmostEqual(values["ops_per_s"], 160.0)
        self.assertAlmostEqual(values["latency_p90_ms"], 100.0)

    def test_medians_ignore_a_slow_minority(self):
        report = fake_report("serve_read")
        # Everything completing in the first three seconds, the first round
        # and part of the second, takes 10x longer.
        for kind in harness.KINDS + ("ep.list",):
            report["samples"][kind + "_us"] = [
                10 * us if t <= 3.0 else us for t, us in
                zip(report["samples"][kind + "_t"],
                    report["samples"][kind + "_us"])]
        values = harness.end_to_end(report, "serve_read")
        self.assertAlmostEqual(values["ops_per_s"], 120.0)
        self.assertAlmostEqual(values["latency_p50_ms"], 2.0)

    def test_sweep_median_is_taken_by_position_over_rounds(self):
        report = fake_report("sweep")
        # Cycles slow as a round's repository grows: cycle k of every round
        # takes 100 + 2k ms; one round in four is 30% slower throughout.
        report["samples"]["cycle_ms"] = [
            (100.0 + 2 * (i % 25)) * (1.3 if i // 25 == 1 else 1.0)
            for i in range(100)]
        values = harness.end_to_end(report, "sweep")
        self.assertAlmostEqual(values["latency_p50_ms"], 124.0)

    def test_p90_needs_ten_samples_beyond(self):
        report = fake_report("sweep")
        for series in ("cycle_ms", "cycle_t"):
            report["samples"][series] = report["samples"][series][:99]
        with self.assertRaises(ValueError):
            harness.end_to_end(report, "sweep")

    def test_time_shares(self):
        shares = harness.time_shares(fake_report("serve_mixed"))
        self.assertAlmostEqual(shares["lookup"], 200 / 740)
        self.assertAlmostEqual(shares["analytic"], 500 / 740)
        self.assertAlmostEqual(shares["write"], 40 / 740)
        self.assertEqual(harness.time_shares(fake_report("sweep")), {})

    def test_per_layer_breakdown(self):
        values = harness.per_layer(fake_report("sweep"), "sweep")
        self.assertEqual(sorted(values), sorted(m[0] for m in harness.PER_LAYER))
        self.assertAlmostEqual(values["sweep.unaccounted_pct"], 20.0)
        self.assertEqual(values["serve_read.unaccounted_pct"], 0.0)
        self.assertAlmostEqual(values["trace_overhead_pct"], 10.0)
        self.assertEqual(values["svc.dispatch_get_us"], 0.0)  # idle layer
        values = harness.per_layer(fake_report("serve_read"), "serve_read")
        self.assertAlmostEqual(values["serve_read.unaccounted_pct"], 20.0)
        self.assertAlmostEqual(values["trace_overhead_pct"], 5.0)
        values = harness.per_layer(fake_report("serve_mixed"), "serve_mixed")
        self.assertAlmostEqual(values["serve_mixed.unaccounted_pct"], 20.0)


if __name__ == "__main__":
    unittest.main()
