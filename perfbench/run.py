#!/usr/bin/env python3
"""Runs one workload of the iokc knowledge-cycle benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (a CMake package over ../src) in Release under
.bench_build/ at the repository root, runs iokc_perfbench, checks its
outputs, and prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see GUIDE.md). Exits non-zero without a result when the
sources are missing, the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
import harness  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, flush=True)


def build():
    """Configures once, then rebuilds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no iokc sources at %s/src" % ROOT)
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "iokc_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                raise RuntimeError("build failed, see %s" % build_log)
    return BUILD_DIR / "iokc_perfbench"


def source_id():
    """The git commit when there is one, and always a digest of the sources
    that were built, so a result names the code it measured."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return commit, digest.hexdigest()[:16]


def run(binary, args):
    workdir = BUILD_DIR / "work" / ("%s-%d" % (args.workload, os.getpid()))
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", str(workdir)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.returncode != 0:
        raise RuntimeError("iokc_perfbench exited with %d" % result.returncode)
    return json.loads(result.stdout.strip().splitlines()[-1])


def describe(report, args, commit, sources):
    info = report["info"]
    log("workload=%s seed=%d seconds=%s trace=%d" %
        (args.workload, args.seed, args.seconds, args.trace))
    log("machine: nproc=%s compiler=%s build=%s kernel=%s" %
        (info["nproc"], info["compiler"], info["build_type"], info["kernel"]))
    log("code: commit=%s sources=%s" % (commit, sources))
    for key in ("server_config", "clients", "rounds", "repository", "journal",
                "cluster", "cycles_per_round"):
        if key in info:
            log("%s: %s" % (key, info[key]))
    log("inputs digest=%s" % report["digest"])
    log("setup_s: median of %d set-ups; %d measured rounds" %
        (len(report["setup_s"]), len(report["samples"].get("segment_end_s", []))))
    shares = harness.time_shares(report)
    if shares:
        log("share of client time: " + ", ".join(
            "%s %.1f%%" % (kind, 100 * share) for kind, share in shares.items()))
    for name, (value, unit, count, supported) in harness.class_metrics(
            report).items():
        log("%s=%.4g %s (n=%d%s)" % (name, value, unit, count, "" if supported
                                     else ", fewer than %d samples beyond" %
                                     harness.MIN_BEYOND))
    for series in ("cycle_ms", "lookup_us", "analytic_us", "write_us"):
        values = report["samples"].get(series)
        tail = harness.tail_percentile(len(values)) if values else None
        if tail is not None:
            log("%s: n=%d, highest percentile with %d beyond: p%g=%.4g" %
                (series, len(values), harness.MIN_BEYOND, tail,
                 harness.percentile(values, tail)))
    log("fail_frac=%.6g (%d of %d attempted)" %
        (harness.fail_frac(report["attempted"], report["failed"]),
         report["failed"], report["attempted"]))
    for reason, count in report["failures"].items():
        log("  failure x%d: %s" % (count, reason))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        commit, sources = source_id()
        report = run(binary, args)
        if args.trace:
            values = harness.per_layer(report, args.workload)
            units = {name: unit for name, unit, _ in harness.PER_LAYER}
        else:
            values = harness.end_to_end(report, args.workload)
            units = {name: unit for name, unit, _, _ in harness.END_TO_END}
    except (RuntimeError, ValueError, KeyError, OSError,
            subprocess.TimeoutExpired) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    describe(report, args, commit, sources)
    line = result_line(report, values, units)
    for name, metric in line["metrics"].items():
        log("%s=%.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(line))
    return 0


def result_line(report, values, units):
    """The final output object."""
    attempted, failed = harness.counted(report["attempted"], report["failed"])
    return {"correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


if __name__ == "__main__":
    sys.exit(main())
