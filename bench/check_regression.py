#!/usr/bin/env python3
"""Perf-regression gate for the pairing-engine bench.

Compares a fresh BENCH_pairing_engine.json against the checked-in
bench/baseline.json and fails (exit 1) when any tracked metric regressed
by more than the allowed fraction (default 25%).

Tracked metrics are *within-run speedup ratios* (the batched engine's
evals/sec divided by the same run's reference engine, and the fixed-base
Encrypt speedup), so the gate is independent of the absolute speed of
the CI runner: a slow machine slows every path equally, but losing the
batched final exponentiation or the CIOS kernels shows up as a collapsed
ratio. The baseline additionally pins the bench parameters (workload
shape and field kernel).

The batched engine walks its line tables eight lanes at a time on an
AVX-512 IFMA host ("ifma8") and one view at a time elsewhere ("scalar"),
so its ratio depends on the run's root-level `miller_walk`. The baseline
keeps one set of ratios per walk, and a run is graded against its own
walk's key; a run whose walk has no key fails the gate.

Usage:
  check_regression.py CURRENT.json [BASELINE.json] [--tolerance=0.25]

Refreshing the baseline after an intentional perf change:
  ./build/bench/bench_pairing_engine --users=16 --width=16 --tokens=3 \
      --pbits=120 --json=current.json
  python3 bench/check_regression.py current.json --update

--update rewrites only the current run's walk key (its ratios, and its
`runs` entry, the list of runs the key was measured from). When the
bench parameters changed, the other walks' keys no longer describe the
workload and are dropped, with a message.
"""

import json
import os
import sys

TRACKED = ["speedup_batched_vs_reference"]


def ratios(bench):
    out = {key: float(bench[key]) for key in TRACKED}
    out["encrypt_speedup"] = float(bench["encrypt"]["speedup"])
    return out


def update(current, walk, current_ratios, baseline_path, tolerance):
    ratios_by_walk, runs_by_walk = {}, {}
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            old = json.load(f)
        if old.get("params") == current["params"]:
            ratios_by_walk = old.get("ratios", {})
            runs_by_walk = old.get("runs", {})
        else:
            dropped = sorted(set(old.get("ratios", {})) - {walk})
            if dropped:
                print(f"bench parameters changed: dropping walk keys "
                      f"{dropped} (re-measure them on their hosts)")
    ratios_by_walk[walk] = current_ratios
    runs_by_walk[walk] = [current_ratios]
    baseline = {
        "params": current["params"],
        "tolerance": tolerance,
        "ratios": ratios_by_walk,
        "runs": runs_by_walk,
    }
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"baseline[{walk!r}] written to {baseline_path}: {current_ratios}")


def main(argv):
    tolerance = 0.25
    tolerance_from_cli = False
    do_update = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
            tolerance_from_cli = True
        elif arg == "--update":
            do_update = True
        else:
            paths.append(arg)
    if not paths:
        print(__doc__)
        return 2
    current_path = paths[0]
    baseline_path = paths[1] if len(paths) > 1 else "bench/baseline.json"

    with open(current_path) as f:
        current = json.load(f)
    walk = current.get("miller_walk")
    if not walk:
        print(f"PERF GATE FAILED: {current_path} reports no miller_walk")
        return 1
    current_ratios = ratios(current)

    if do_update:
        update(current, walk, current_ratios, baseline_path, tolerance)
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)
    # An explicit CLI tolerance overrides the one stored in the baseline.
    if not tolerance_from_cli:
        tolerance = float(baseline.get("tolerance", tolerance))

    failures = []
    # Ratios are only comparable on the same workload shape: pin every
    # baseline parameter, not just the kernel.
    for key, expected in baseline["params"].items():
        actual = current["params"].get(key)
        if actual != expected:
            failures.append(
                f"bench parameter {key} changed: baseline {expected!r}, "
                f"current {actual!r} — refresh bench/baseline.json with "
                f"--update if intentional")

    walk_ratios = baseline["ratios"].get(walk)
    if walk_ratios is None:
        failures.append(
            f"no baseline for miller_walk {walk!r} (have "
            f"{sorted(baseline['ratios'])}) — measure one on such a host "
            f"and add it with --update")
        walk_ratios = {}
    else:
        print(f"grading against the {walk!r} walk baseline")

    for key, base_value in walk_ratios.items():
        cur_value = current_ratios.get(key)
        if cur_value is None:
            failures.append(f"metric {key} missing from current run")
            continue
        floor = base_value * (1.0 - tolerance)
        status = "OK " if cur_value >= floor else "REG"
        print(f"{status} {key}: current {cur_value:.3f} vs baseline "
              f"{base_value:.3f} (floor {floor:.3f})")
        if cur_value < floor:
            failures.append(
                f"{key} regressed >{tolerance:.0%}: {cur_value:.3f} < "
                f"{floor:.3f} (baseline {base_value:.3f})")

    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
