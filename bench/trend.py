#!/usr/bin/env python3
"""Nightly bench-trend aggregator.

Folds one night's BENCH_*.json results into a rolling per-metric
history file and flags *drift*: slow regressions that stay inside the
per-run 25% gate of check_regression.py but accumulate across nights.
Each metric's newest value is compared against the median of its prior
history window; a drift alert fires when the value moved more than
--drift (default 10%) in the bad direction.

Metric direction is inferred from the name: throughput-like metrics
(*_per_sec, *_per_s, speedup_*, evals_per_sec, pairings_per_sec) are
higher-is-better; cost-like metrics (*_ms, *_us, *us_per_query, *_s,
*_seconds, *_mb, *_allocs, allocs_*, *_bytes) are lower-is-better. A
`median` leaf takes the direction of the metric it summarizes, one
level up (BENCH_svcbench.json's workloads.<name>.<metric>.median).
Metrics that match neither family are recorded in the history but
never alerted on.

Usage:
  trend.py [--history=PATH] [--drift=0.10] [--window=14] [--strict] \
      [--run-id=ID] [--git[=REPO]] BENCH_*.json...

Writes the updated history back to --history (default
trend-history.json). Exits 0 even when drift is detected unless
--strict is given — the nightly job records drift in the log and the
uploaded history without going red.

--git reads the trajectory the repository itself keeps: every committed
version of the BENCH_*.json files at the root of REPO (default: the
current directory), via `git log` and `git show`, one run per commit
that changed any of them, oldest first. The runs are stored under the
history's "git_runs" (rebuilt from git on every call, so folding twice
adds nothing), beside the nightly "runs", and printed as a per-metric
trajectory; a night's value of a metric the commits also carry is
printed against the last committed one. Committed runs never raise a
drift alert, and with --git the bench files are optional.
"""

import json
import math
import os
import statistics
import subprocess
import sys

HIGHER_IS_BETTER = ("_per_sec", "per_sec", "_per_s", "speedup")
LOWER_IS_BETTER = ("_ms", "ms", "_us", "us_per_query", "_s", "_seconds",
                   "seconds", "_mb", "allocs", "bytes")
# Workload shape, not measurements.
SHAPE_KEYS = ("tolerance", "run_seconds", "held_out_seed")
GIT_PATHSPEC = ":(glob)BENCH_*.json"  # the files at the repository root


def direction(metric):
    """+1 higher-is-better, -1 lower-is-better, 0 untracked."""
    parts = metric.split(".")
    leaf = parts[-1]
    if leaf == "median" and len(parts) > 1:
        leaf = parts[-2]
    for marker in HIGHER_IS_BETTER:
        if marker in leaf:
            return +1
    for marker in LOWER_IS_BETTER:
        if leaf == marker or leaf.endswith(marker) or \
                leaf.startswith(marker):
            return -1
    return 0


def flatten(prefix, node, out):
    """Collects every numeric leaf of a JSON tree under dotted keys."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, bool):
        pass  # bools are config, not metrics
    elif isinstance(node, (int, float)):
        if isinstance(node, float) and not math.isfinite(node):
            return
        out[prefix] = float(node)


def label_of(path):
    """BENCH_pairing_engine_384.json -> pairing_engine_384."""
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def bench_metrics(label, bench):
    """The measurements of one bench JSON, namespaced by its label."""
    flat = {}
    flatten("", bench, flat)
    return {f"{label}.{key}": value for key, value in flat.items()
            if not key.startswith("params.") and key not in SHAPE_KEYS}


def git(repo, *args):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          capture_output=True, text=True).stdout


def git_runs(repo):
    """One run per commit that changed a root BENCH_*.json, oldest first."""
    runs = []
    log = git(repo, "log", "--reverse", "--format=%H %cI", "--",
              GIT_PATHSPEC)
    for line in log.splitlines():
        sha, date = line.split()
        changed = git(repo, "show", "--name-only", "--format=", sha, "--",
                      GIT_PATHSPEC).split()
        metrics = {}
        for path in changed:
            try:
                text = git(repo, "show", f"{sha}:{path}")
            except subprocess.CalledProcessError:
                continue  # deleted in this commit
            metrics.update(bench_metrics(label_of(path), json.loads(text)))
        if metrics:
            runs.append({"commit": sha[:12], "date": date,
                         "metrics": metrics})
    return runs


def print_git_trajectory(runs, tonight):
    """Each directed metric's committed values, oldest first, and a
    night's value against the last committed one."""
    series = {}
    for run in runs:
        for metric, value in run["metrics"].items():
            series.setdefault(metric, []).append((run["commit"][:7], value))
    print(f"committed trajectory: {len(runs)} commit(s)")
    for metric in sorted(series):
        if direction(metric) == 0:
            continue
        points = " -> ".join(f"{value:.4g} ({commit})"
                             for commit, value in series[metric])
        line = f"git   {metric}: {points}"
        if metric in tonight and series[metric][-1][1] != 0:
            last = series[metric][-1][1]
            change = direction(metric) * (tonight[metric] - last) / abs(last)
            line += f"; tonight {tonight[metric]:.4g} ({change:+.1%})"
        print(line)
    print()


def main(argv):
    history_path = "trend-history.json"
    drift = 0.10
    window = 14
    strict = False
    run_id = ""
    repo = None
    bench_paths = []
    for arg in argv[1:]:
        if arg.startswith("--history="):
            history_path = arg.split("=", 1)[1]
        elif arg.startswith("--drift="):
            drift = float(arg.split("=", 1)[1])
        elif arg.startswith("--window="):
            window = int(arg.split("=", 1)[1])
        elif arg.startswith("--run-id="):
            run_id = arg.split("=", 1)[1]
        elif arg == "--strict":
            strict = True
        elif arg == "--git" or arg.startswith("--git="):
            repo = arg.split("=", 1)[1] if "=" in arg else "."
        else:
            bench_paths.append(arg)
    if not bench_paths and repo is None:
        print(__doc__)
        return 2

    # Current night's metrics, namespaced by bench label.
    metrics = {}
    for path in bench_paths:
        with open(path) as f:
            metrics.update(bench_metrics(label_of(path), json.load(f)))

    history = {"runs": []}
    if os.path.exists(history_path):
        with open(history_path) as f:
            history = json.load(f)
    prior_runs = history.get("runs", [])
    if repo is not None:
        history["git_runs"] = git_runs(repo)
        print_git_trajectory(history["git_runs"], metrics)
        if not bench_paths:
            with open(history_path, "w") as f:
                json.dump(history, f, indent=1)
                f.write("\n")
            print(f"folded {len(history['git_runs'])} committed run(s) "
                  f"into {history_path}")
            return 0

    alerts = []
    tracked = 0
    for metric, value in sorted(metrics.items()):
        sign = direction(metric)
        if sign == 0:
            continue
        prior = [run["metrics"][metric] for run in prior_runs[-window:]
                 if metric in run.get("metrics", {})]
        if len(prior) < 2:
            continue  # not enough history to call anything drift
        tracked += 1
        baseline = statistics.median(prior)
        if baseline == 0:
            continue
        # Positive change = got better in this metric's direction.
        change = sign * (value - baseline) / abs(baseline)
        marker = "DRIFT" if change < -drift else "ok   "
        print(f"{marker} {metric}: {value:.4g} vs median {baseline:.4g} "
              f"over {len(prior)} runs ({change:+.1%})")
        if change < -drift:
            alerts.append(
                f"{metric} drifted {change:+.1%} (value {value:.4g}, "
                f"median {baseline:.4g} over {len(prior)} runs)")

    history["runs"] = prior_runs + [{"run_id": run_id, "metrics": metrics}]
    # Bound the file: keep a generous multiple of the drift window.
    history["runs"] = history["runs"][-max(10 * window, 100):]
    with open(history_path, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")

    print(f"\nfolded {len(metrics)} metrics from {len(bench_paths)} "
          f"bench file(s) into {history_path} "
          f"({len(history['runs'])} runs, {tracked} drift-tracked)")
    if alerts:
        print("\nDRIFT ALERTS (inside the per-run gate, but trending):")
        for alert in alerts:
            print(f"  - {alert}")
        return 1 if strict else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
