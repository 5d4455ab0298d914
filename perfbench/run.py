#!/usr/bin/env python3
"""Repo benchmark: build the engine, run one workload, report its metrics.

    python3 perfbench/run.py --workload nightly_serial --seed 1 \
        --seconds 24 --trace 0

Run from the repository root. The engine and the runner binary are built
from source into .bench_build/ (CMake, incremental after the first run);
scratch data, spill runs, CDC journals and trace files go to
.bench_work/<workload>/, which is wiped at the start of every run.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, and the spans of the traced
loads are written as a Chrome trace-event file (path printed above the
result). Both are one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run exits non-zero when any output check fails (the result line is
still printed, with "correct": false) and without a result line when the
benchmark cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "qox_perfbench")

WORKLOADS = ("nightly_serial", "nightly_parallel", "cdc_supervised")
DEFAULT_SEED = 1
# The whole invocation, build excluded, must end well inside 180 s.
RUN_TIMEOUT_S = 170
# Host probe time (HostProbe in harness.cc) per workload that defines the
# reference host speed. The shared host this benchmark was built on drifts
# by up to 2.5x in speed over minutes; every timing is scaled to this speed
# by the probes taken around it. The CDC probe adds forks and fsyncs to
# the compute task, so its reference time is longer.
PROBE_REF_S = {"nightly_serial": 0.040, "nightly_parallel": 0.040,
               "cdc_supervised": 0.060}
# Runner processes per run, run one after another; each sets up once and
# measures for a share of --seconds. Their loads are pooled, so no single
# process's allocator or scheduling luck sets a run's figures.
PROCESSES = 4
# A load's host slowness is the median of the probes taken before it and
# its neighbours in the same process, up to this many on each side: one
# probe is too short to be steady.
PROBE_NEIGHBOURS = 2

# Per-layer metrics computed here from the samples rather than emitted by
# the runner binary.
TRACE_RATIO = "bench.trace.rows_per_s_ratio"
HOST_PROBE = "bench.host.probe_ms"
LOAD_TREND = "bench.load.trend_ratio"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; exits 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            sys.exit(1)


def run_process(args, work_dir, seconds, deadline):
    """Runs the runner binary once; returns its raw JSON report."""
    # Flush earlier runs' dirty pages so their write-back does not land on
    # this run's fsyncs.
    os.sync()
    env = {k: v for k, v in os.environ.items() if not k.startswith("QOX_")}
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%.3f" % seconds, "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, check=False,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: runner exited with %d" % done.returncode)
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: runner printed no result")
        sys.exit(1)
    return json.loads(lines[-1])


def combine(raws, work_dir, probe_ref_s):
    """Pools the reports of the runner processes of one run.

    Every load and set-up is tagged with the host slowness measured around
    it: host probe time over the workload's reference probe time.
    """
    combined = {"setup": [], "loads": [], "errors": [], "run_layers": {},
                "probe_s": []}
    for raw in raws:
        loads = raw["loads"]
        combined["probe_s"] += [load["probe"]["wall_s"] for load in loads]
        combined["setup"].append(
            (raw["setup_s"], slowness([raw["setup_probe"]], probe_ref_s)))
        probes = [load["probe"] for load in loads]
        for i, load in enumerate(loads):
            near = probes[max(0, i - PROBE_NEIGHBOURS):i + PROBE_NEIGHBOURS + 1]
            load["slowness"] = slowness(near, probe_ref_s)
        combined["loads"] += loads
        combined["errors"] += raw["errors"]
    combined["peak_rss_mb"] = [r["peak_rss_mb"] for r in raws]
    combined["trend"] = stats.median([trend_ratio(r["loads"]) for r in raws])
    for name in raws[0]["run_layers"]:
        combined["run_layers"][name] = stats.median(
            [r["run_layers"][name] for r in raws if name in r["run_layers"]])
    if any(r["trace_file"] for r in raws):
        # One Chrome trace for the run: process k's spans under pid k.
        events = []
        for pid, raw in enumerate(raws, start=1):
            with open(raw["trace_file"]) as f:
                for event in json.load(f)["traceEvents"]:
                    event["pid"] = pid
                    events.append(event)
        combined["trace_file"] = os.path.join(work_dir, "trace.json")
        with open(combined["trace_file"], "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    return combined


def slowness(probes, probe_ref_s):
    """Host slowness from probes: their median wall and CPU time, each over
    the reference probe time."""
    return {kind: stats.median([p[kind] for p in probes]) / probe_ref_s
            for kind in ("wall_s", "cpu_s")}


def trend_ratio(loads):
    """Median wall time of the last third of loads over the first third."""
    walls = [load["wall_s"] for load in loads]
    third = max(1, len(walls) // 3)
    return stats.median(walls[-third:]) / stats.median(walls[:third])


def end_to_end(raw, adjusted):
    """Samples of every end-to-end metric, raw or host-adjusted by the
    slowness measured around each load and set-up: wall times are divided
    by the probe's wall slowness, CPU times by its CPU slowness."""
    def wall(slow):
        return slow["wall_s"] if adjusted else 1.0

    def cpu(slow):
        return slow["cpu_s"] if adjusted else 1.0

    loads = [load for load in raw["loads"]
             if not load["traced"] and load["ok"] and load["rows"] > 0]
    freshness = [ms / wall(load["slowness"])
                 for load in loads for ms in load["freshness_ms"]]
    return {
        "setup_s": ("s", [s / wall(slow) for s, slow in raw["setup"]]),
        "rows_per_s": ("1/s", [l["rows"] / l["wall_s"] * wall(l["slowness"])
                               for l in loads]),
        "cpu_s_per_mrow": ("s", [
            l["cpu_s"] / (l["rows"] / 1e6) / cpu(l["slowness"])
            for l in loads]),
        "peak_rss_mb": ("MB", raw["peak_rss_mb"]),
        "freshness_ms_p50": ("ms", freshness),
        "freshness_ms_p90": ("ms", freshness),
    }


def headline(name, values):
    """The reported figure: the 90th percentile for freshness_ms_p90, else
    the median."""
    if name == "freshness_ms_p90":
        return stats.percentile(values, 90.0)
    return stats.median(values)


def per_layer(raw, declared):
    traced = [load for load in raw["loads"] if load["traced"] and load["ok"]]
    untraced = [load for load in raw["loads"]
                if not load["traced"] and load["ok"]]
    emitted = set(raw["run_layers"])
    for load in traced:
        emitted.update(load["layers"])
    unknown = sorted(emitted - set(declared))
    if unknown:
        log("perfbench: undeclared per-layer metrics: " + ", ".join(unknown))
        sys.exit(1)
    metrics = {}
    missing = []
    for name, unit in declared.items():
        values = [load["layers"][name] for load in traced
                  if name in load["layers"]]
        if values:
            value = stats.median(values)
        elif name in raw["run_layers"]:
            value = raw["run_layers"][name]
        elif name == TRACE_RATIO and traced and untraced:
            rate = lambda l: l["rows"] / l["wall_s"]
            value = (stats.median([rate(l) for l in traced]) /
                     stats.median([rate(l) for l in untraced]))
        elif name == LOAD_TREND:
            value = raw["trend"]
        elif name == HOST_PROBE:
            value = 1000 * stats.median(raw["probe_s"])
        else:
            value = 0.0
            missing.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def describe(name, unit, values, raw_values):
    summary = stats.summarize(values)
    text = "%-18s %12.6g %-4s n=%-4d" % (name, headline(name, values), unit,
                                         summary["n"])
    if summary["n"] > 1:
        text += " q1=%.6g q3=%.6g" % (summary["q1"], summary["q3"])
    if "tail_q" in summary:
        text += " p%g=%.6g" % (summary["tail_q"], summary["tail"])
    return text + "  (raw %.6g)" % headline(name, raw_values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    work_dir = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    raws = []
    for index in range(PROCESSES):
        process_dir = os.path.join(work_dir, "p%d" % index)
        os.makedirs(process_dir)
        raws.append(run_process(args, process_dir, args.seconds / PROCESSES,
                               deadline))
    raw = combine(raws, work_dir, PROBE_REF_S[args.workload])
    elapsed = time.monotonic() - started

    attempted = len(raw["loads"])
    failed = sum(1 for load in raw["loads"] if not load["ok"])
    correct = failed == 0 and not raw["errors"]
    for error in raw["errors"][:20]:
        log("perfbench: check failed: " + error)

    print("workload %s seed %d: %d loads in %.1f s, failed_frac %.6g "
          "(%d/%d)" % (args.workload, args.seed, attempted, elapsed,
                       failed / max(1, attempted), failed, attempted))
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, missing = per_layer(raw, declared)
        for name in declared:
            print("%-44s %14.6g %s" % (name, metrics[name]["value"],
                                      metrics[name]["unit"]))
        if missing:
            print("not exercised by this workload (reported as 0): " +
                  ", ".join(missing))
        print("trace file: " + os.path.relpath(raw["trace_file"], ROOT))
    else:
        adjusted = end_to_end(raw, adjusted=True)
        unadjusted = end_to_end(raw, adjusted=False)
        print("host probe %.2f ms median over loads (reference %.0f ms);"
              " figures below are host-adjusted, raw in parentheses"
              % (1000 * stats.median(raw["probe_s"]),
                 1000 * PROBE_REF_S[args.workload]))
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            unit, values = adjusted[name]
            if not values:
                log("perfbench: no samples for " + name)
                correct = False
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            print(describe(name, unit, values, unadjusted[name][1]))
            metrics[name] = {"value": headline(name, values), "unit": unit}
        print("load trend (last third / first third wall, median of "
              "processes): %.4f" % raw["trend"])

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
