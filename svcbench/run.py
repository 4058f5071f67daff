#!/usr/bin/env python3
"""Builds and runs the service benchmark from the root of a checkout.

    python3 svcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds svcbench/ (the library from src/ plus the driver)
into the build directory, then runs one measurement. The driver's
stdout passes through; its last line is the result JSON. Build output
goes to stderr. Exits non-zero, without a result, when the build or the
run fails.

    python3 svcbench/run.py --workload NAME --seed N --seconds S \
        --trace-overhead

runs the same seed untraced and traced and prints the tracing overhead
(traced minus untraced) of the latency metrics.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build;
work directories and trace files go under it.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("alert_fresh", "ingest_durable", "standing_mixed")
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "svcbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("svcbench: build failed: " + " ".join(step))
    # The build's object files would otherwise be written back during
    # the first measurement.
    os.sync()
    return os.path.join(build_dir, "svcbench")


def run_once(binary, build_dir, args, trace):
    tag = "%s-%d-%d-%d" % (args.workload, args.seed, trace, os.getpid())
    work = os.path.join(build_dir, "work-" + tag)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--dir", work,
           "--trace-file", os.path.join(traces, tag + ".jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("svcbench: run timed out")
    finally:
        # Deleting the store frees its blocks; flush that now so the
        # next run does not pay for it.
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit("svcbench: driver exited with %d" % done.returncode)
    return done.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if not args.trace_overhead:
        sys.stdout.write(run_once(binary, build_dir, args, args.trace))
        return

    # Both runs print every end-to-end metric as a human-readable line
    # ("  name = value unit  (note)"); only the JSON line differs.
    values = {}
    for trace in (0, 1):
        out = run_once(binary, build_dir, args, trace)
        sys.stderr.write(out)
        values[trace] = parse_metric_lines(out)
    print("tracing overhead, traced - untraced, %s seed %d:"
          % (args.workload, args.seed))
    for name, (plain, unit) in values[0].items():
        if name in values[1]:
            traced = values[1][name][0]
            share = (traced - plain) / plain if plain else 0.0
            print("  %s %+.4g %s (%+.1f%%)"
                  % (name, traced - plain, unit, 100 * share))


def parse_metric_lines(out):
    metrics = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[1] == "=" and line.startswith("  "):
            try:
                metrics[fields[0]] = (float(fields[2]), fields[3])
            except ValueError:
                pass
    return metrics


if __name__ == "__main__":
    main()
