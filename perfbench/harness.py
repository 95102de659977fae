"""Metric definitions and statistics of the knowledge-cycle benchmark.

iokc_perfbench only measures: it reports raw samples and exact counts. This
module turns one such report into the benchmark's metrics, so every
statistic is defined once and covered by test_harness.py.
"""

import math
import re
import statistics
from fractions import Fraction

# Why each workload exists is recorded in BENCHMARK.json and GUIDE.md.
WORKLOADS = ("sweep", "serve_read", "serve_mixed", "serve_quorum")

# Gated end-to-end metrics: (name, unit, better, bound). Every one is
# measured on every workload. latency_p50_ms is the median of the
# workload's primary operation (PRIMARY); latency_p90_ms covers every
# operation of the window, pooled: cycles on sweep, all requests on the
# serve workloads.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
]
# The primary operation of each workload, whose median is latency_p50_ms.
# On the serve workloads it is one endpoint, list: a class median falls
# where the class's endpoints meet (the lookups' between health/sql_point
# and get/anomaly; the analytics' on serve_mixed where reads that pay a
# snapshot rebuild begin), so it jumps with small shifts in the mix or the
# timing. list is the cheapest analytic whose 100+ KB response crosses
# transport, util::json and the repository snapshot; its 1-2 ms are server
# work, not thread wake-ups.
PRIMARY = {"sweep": "cycle", "serve_read": "ep.list",
           "serve_mixed": "ep.list", "serve_quorum": "ep.list"}

# The request classes and cycles reported by name beside the gated metrics:
# name -> (sample series, percentile, unit, divisor from the series' unit).
CLASS_METRICS = {
    "cycle_p50_ms": ("cycle_ms", 50, "ms", 1),
    "cycle_p90_ms": ("cycle_ms", 90, "ms", 1),
    "lookup_p50_us": ("lookup_us", 50, "us", 1),
    "lookup_p99_us": ("lookup_us", 99, "us", 1),
    "analytic_p50_ms": ("analytic_us", 50, "ms", 1000),
    "analytic_p90_ms": ("analytic_us", 90, "ms", 1000),
    "write_p50_us": ("write_us", 50, "us", 1),
    "write_p99_us": ("write_us", 99, "us", 1),
}

# Per-layer metrics: (name, unit, better). Each is the median of its
# samples, or an exact count; 0 where the workload leaves the layer idle.
PER_LAYER = [
    ("jube.run_ms", "ms", "lower"),
    ("jube.work_packages", "count", "higher"),
    ("extract.discover_ms", "ms", "lower"),
    ("extract.parse_ms", "ms", "lower"),
    ("extract.files", "count", "higher"),
    ("extract.bytes", "B", "lower"),
    ("persist.commit_ms", "ms", "lower"),
    ("persist.journal_bytes", "B", "lower"),
    ("persist.load_ms", "ms", "lower"),
    ("analysis.detect_ms", "ms", "lower"),
    ("analysis.findings", "count", "higher"),
    ("usage.train_ms", "ms", "lower"),
    ("usage.fit_ms", "ms", "lower"),
    ("usage.samples", "count", "higher"),
] + [
    ("svc.dispatch_%s_us" % endpoint, "us", "lower")
    for endpoint in ("health", "stats", "list", "sql_scan", "sql_point", "get",
                     "store", "predict", "recommend", "anomaly", "lookup")
] + [
    ("svc.transport_us", "us", "lower"),
    ("svc.transport_store_us", "us", "lower"),
    ("util.json_parse_us", "us", "lower"),
    ("util.json_encode_us", "us", "lower"),
    ("util.json_parse_store_us", "us", "lower"),
    ("util.json_encode_store_us", "us", "lower"),
    ("svc.bytes_in_per_req", "B/req", "lower"),
    ("svc.bytes_out_per_req", "B/req", "lower"),
    ("db.point_us", "us", "lower"),
    ("db.scan_us", "us", "lower"),
    ("db.rows_out", "count", "higher"),
    ("db.stmt_cache_hit_ratio", "ratio", "higher"),
    ("usage.train_us", "us", "lower"),
    ("usage.fit_us", "us", "lower"),
    ("usage.knn_us", "us", "lower"),
    ("usage.recommend_us", "us", "lower"),
    ("persist.load_us", "us", "lower"),
    ("analysis.detect_us", "us", "lower"),
    ("svc.snapshot_fresh_us", "us", "lower"),
    ("svc.snapshot_rebuild_us", "us", "lower"),
    ("svc.snapshot_full_rebuilds", "count/write", "lower"),
    ("svc.snapshot_delta_applies", "count/write", "lower"),
    ("persist.store_us", "us", "lower"),
    ("persist.journal_bytes_per_write", "B", "lower"),
    ("repl.ack_wait_us", "us", "lower"),
    ("repl.batches_shipped", "count", "higher"),
    ("repl.records_per_batch", "count", "higher"),
    ("repl.ack_timeouts", "count", "lower"),
    ("repl.read_skew", "ratio", "lower"),
] + [
    ("%s.unaccounted_pct" % workload, "%", "lower") for workload in WORKLOADS
] + [
    ("trace_overhead_pct", "%", "lower"),
]

# The blocking path each workload's breakdown explains: the end-to-end
# series (median taken from the untraced pass), and the layer medians that
# should add up to it.
_STORE_PATH = ["svc.dispatch_store_us", "util.json_parse_store_us",
               "util.json_encode_store_us", "svc.transport_store_us"]
BREAKDOWN = {
    "sweep": ("cycle_ms", ["jube.run_ms", "extract.discover_ms",
                           "extract.parse_ms", "persist.commit_ms",
                           "persist.load_ms", "analysis.detect_ms",
                           "usage.train_ms", "usage.fit_ms"]),
    "serve_read": ("lookup_us", ["svc.dispatch_lookup_us", "util.json_parse_us",
                                 "util.json_encode_us", "svc.transport_us"]),
    "serve_mixed": ("write_us", _STORE_PATH),
    "serve_quorum": ("write_us", _STORE_PATH),
}

# The series trace_overhead_pct compares between the traced and untraced
# passes of one run.
OVERHEAD_SERIES = {"sweep": "cycle_ms", "serve_read": "lookup_us",
                   "serve_mixed": "lookup_us", "serve_quorum": "lookup_us"}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10
KINDS = ("lookup", "analytic", "write")  # request classes of the serve workloads


def valid_name(name):
    """Whether `name` fits the metric-name grammar."""
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def rank(n, q):
    """1-based nearest rank of percentile q among n sorted samples, in exact
    arithmetic (0.9 * 100 is 90.00000000000001 in floating point)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def beyond(n, q):
    """Samples strictly above the nearest-rank percentile q of n samples."""
    return n - rank(n, q)


def tail_percentile(n):
    """The highest percentile with at least MIN_BEYOND samples beyond it, or
    None when even the median has fewer."""
    supported = [q for q in PERCENTILES if beyond(n, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def percentile(values, q):
    """Nearest-rank percentile; the median for q == 50."""
    if not values:
        raise ValueError("percentile of no samples")
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def counted(attempted, failed):
    """(attempted, failed) as reported. A run that attempted nothing counts
    as one failed attempt."""
    if attempted <= 0:
        return 1, 1
    return attempted, failed


def fail_frac(attempted, failed):
    """Failed operations and checks over attempted ones."""
    attempted, failed = counted(attempted, failed)
    return failed / attempted


def timed_latencies_ms(report, workload):
    """(completion time in s, latency in ms, kind) of every operation the
    untraced pass completed, in completion order."""
    samples = report["samples"]
    if workload == "sweep":
        return [(t, ms, "cycle") for t, ms in
                zip(samples.get("cycle_t", []), samples.get("cycle_ms", []))]
    return sorted((t, us / 1000.0, kind)
                  for kind in KINDS
                  for t, us in zip(samples.get(kind + "_t", []),
                                   samples.get(kind + "_us", [])))


def by_round(report, timed):
    """Operations ordered by completion time, split by the untraced pass's
    rounds. Every round does the same work on the same repository sizes."""
    rounds, i = [], 0
    for end in report["samples"].get("segment_end_s", []):
        first = i
        while i < len(timed) and timed[i][0] <= end:
            i += 1
        if i > first:
            rounds.append(timed[first:i])
    return rounds


def segments(report, workload):
    """The untraced pass's operations, (completion time in s, latency in ms,
    kind) in completion order, split by round."""
    return by_round(report, timed_latencies_ms(report, workload))


def segment_rates(report, workload):
    """Operations per second of each round. A round's throughput counts its
    operations over the time from the previous round's last completion to
    its own."""
    per_sample = int(report["info"].get("ops_per_sample", "1"))
    rates, last_done = [], 0.0
    for ops in segments(report, workload):
        if ops[-1][0] > last_done:
            rates.append(per_sample * len(ops) / (ops[-1][0] - last_done))
            last_done = ops[-1][0]
    return rates


def typical_p50(report, workload):
    """The median latency of the primary operation in a typical round. On
    sweep, where a round's cycles slow as its repository grows, the cycle
    at each position takes its median over the rounds, then the median over
    positions; on the serve workloads, where completion order means
    nothing, it is the median of the round medians. Either way a burst of
    interference that slows a minority of rounds does not move it."""
    samples = report["samples"]
    name = PRIMARY[workload]
    if workload == "sweep":
        timed = list(zip(samples.get("cycle_t", []),
                         samples.get("cycle_ms", [])))
    else:
        timed = sorted((t, us / 1000.0) for t, us in
                       zip(samples.get(name + "_t", []),
                           samples.get(name + "_us", [])))
    rounds = [[ms for _, ms in ops] for ops in by_round(report, timed)]
    if not rounds:
        raise ValueError("the run completed no %s" % name)
    if workload != "sweep":
        return statistics.median(statistics.median(r) for r in rounds)
    positions = max(len(r) for r in rounds)
    return statistics.median(
        statistics.median(r[k] for r in rounds if k < len(r))
        for k in range(positions))


def end_to_end(report, workload):
    """The gated metrics of one run: name -> value. Throughput and the
    median are taken over the rounds, so a burst of interference from
    outside the benchmark moves a minority of rounds, not the result. The
    p90 pools every operation of the window and must have MIN_BEYOND
    samples beyond it."""
    rates = segment_rates(report, workload)
    if not rates or not report["setup_s"]:
        raise ValueError("the run completed no operation")
    latencies = [ms for _, ms, _ in timed_latencies_ms(report, workload)]
    if beyond(len(latencies), 90) < MIN_BEYOND:
        raise ValueError("%d operations leave fewer than %d beyond p90" %
                         (len(latencies), MIN_BEYOND))
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": typical_p50(report, workload),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mib": report["peak_rss_mib"],
    }


def time_shares(report):
    """Each request class's share of the summed client latency of the
    untraced pass. With closed-loop clients, ops_per_s is the client count
    over the mean latency, so these shares say how much of ops_per_s each
    class decides."""
    sums = {kind: sum(report["samples"].get(kind + "_us", [])) for kind in KINDS}
    total = sum(sums.values())
    return {kind: value / total for kind, value in sums.items()
            if total > 0 and value > 0}


def class_metrics(report):
    """The per-class percentiles that apply to this run: name -> (value,
    unit, samples, whether the percentile has MIN_BEYOND samples beyond)."""
    out = {}
    for name, (series, q, unit, divisor) in CLASS_METRICS.items():
        values = report["samples"].get(series)
        if values:
            out[name] = (percentile(values, q) / divisor, unit, len(values),
                         beyond(len(values), q) >= MIN_BEYOND)
    return out


def layer_value(report, name):
    samples = report["samples"].get(name)
    if samples:
        return statistics.median(samples)
    return report["values"].get(name, 0.0)


def unaccounted_pct(report, workload):
    """(end-to-end median - sum of layer medians) / end-to-end median, in %."""
    series, parts = BREAKDOWN[workload]
    total = statistics.median(report["samples"][series])
    return 100.0 * (total - sum(layer_value(report, p) for p in parts)) / total


def trace_overhead_pct(report, workload):
    series = OVERHEAD_SERIES[workload]
    untraced = statistics.median(report["samples"][series])
    traced = statistics.median(report["samples"]["traced." + series])
    return 100.0 * (traced - untraced) / untraced


def per_layer(report, workload):
    """Every per-layer metric: name -> value (0 for idle layers)."""
    out = {name: layer_value(report, name) for name, _, _ in PER_LAYER}
    for other in WORKLOADS:
        out[other + ".unaccounted_pct"] = 0.0
    out[workload + ".unaccounted_pct"] = unaccounted_pct(report, workload)
    out["trace_overhead_pct"] = trace_overhead_pct(report, workload)
    return out
