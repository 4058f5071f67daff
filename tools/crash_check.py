#!/usr/bin/env python3
"""Crash-consistency harness for the alert service's durable store.

Repeatedly kill -9's a live `serve_alerts --serve` process under
concurrent ingest and proves two things after every crash:

  1. the store recovers (manifest + segment replay + snapshot all
     parse — a torn tail is tolerated, corruption is not), and
  2. no acked write was lost: every user's recovered ciphertext is
     byte-identical to a send the ack log permits (at or after that
     user's last acked sequence number).

The heavy lifting lives in the serve_alerts binary itself (see
examples/serve_alerts.cpp): `--ingest` streams deterministic uploads
and journals "S user seq" / "A user seq" lines, `--check` reopens the
store directly and replays the determinism to compare bytes. This
script only orchestrates processes and kill timing.

The store directory and ack log persist across iterations of one mode,
so every crash recovers the accumulated history of all previous
crashes — including crashes that land mid-compaction, which is why
--compact-bytes defaults low enough to force rotations and manifest
rewrites every few hundred uploads.

Usage:
  python3 tools/crash_check.py --binary build/examples/serve_alerts \
      [--iterations 5] [--durability group,fsync] [--seed 1234] \
      [--compact-bytes 200000] [--min-kill-s 0.5] [--max-kill-s 2.0]

Durability modes are serve_alerts' --durability values: "group" (group
commit, 64-record window) and "fsync" (group commit with a one-record
window, so the sync thread fsyncs as soon as anything is pending). In
both an ack means the covering fsync completed. "none" acks at the
page cache, which a kill -9 does not lose either.

Exit 0 iff every iteration of every mode passes the check.
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def wait_for_port(proc, log_path, timeout_s=120.0):
    """Waits for the LISTENING line; returns the port."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"server exited early (rc={proc.returncode}); "
                     f"see {log_path}")
        try:
            with open(log_path) as f:
                for line in f:
                    if line.startswith("LISTENING"):
                        return int(line.split()[1])
        except FileNotFoundError:
            pass
        time.sleep(0.1)
    sys.exit(f"server never printed LISTENING; see {log_path}")


def next_seq_base(ack_file):
    """1 + the largest seq ever sent (acked or not, it may be applied)."""
    top = 0
    try:
        with open(ack_file) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 3:
                    top = max(top, int(parts[2]))
    except FileNotFoundError:
        pass
    return top + 1


def run_mode(args, mode, workdir):
    store = os.path.join(workdir, f"store-{mode}")
    ack_file = os.path.join(workdir, f"acks-{mode}.txt")
    os.makedirs(store, exist_ok=True)

    for it in range(1, args.iterations + 1):
        log_path = os.path.join(workdir, f"server-{mode}-{it}.log")
        with open(log_path, "w") as log:
            server = subprocess.Popen(
                [args.binary, "--serve", f"--dir={store}",
                 f"--durability={mode}",
                 f"--compact-bytes={args.compact_bytes}"],
                stdout=log, stderr=subprocess.STDOUT)
        try:
            port = wait_for_port(server, log_path)
            base = next_seq_base(ack_file)
            ingest = subprocess.Popen(
                [args.binary, "--ingest", f"--port={port}",
                 f"--ack-file={ack_file}", f"--seq-base={base}",
                 f"--max-seconds={args.ingest_max_s}"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

            # Let ingest run, then yank the plug mid-flight. The window
            # is random so kills land in appends, fsyncs, rotations,
            # and compactions alike.
            delay = random.uniform(args.min_kill_s, args.max_kill_s)
            time.sleep(delay)
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait()
        ingest.wait(timeout=args.ingest_max_s + 60)

        check = subprocess.run(
            [args.binary, "--check", f"--dir={store}",
             f"--ack-file={ack_file}"])
        sent = sum(1 for line in open(ack_file) if line.startswith("S"))
        acked = sum(1 for line in open(ack_file) if line.startswith("A"))
        print(f"[{mode} {it}/{args.iterations}] killed after "
              f"{delay:.2f}s, {sent} sent / {acked} acked total -> "
              f"{'PASS' if check.returncode == 0 else 'FAIL'}",
              flush=True)
        if check.returncode != 0:
            return False
        if acked == 0 and it == args.iterations:
            # A run where nothing was ever acked proves nothing.
            sys.exit(f"[{mode}] no upload was ever acked; raise "
                     f"--min-kill-s (server log: {log_path})")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the serve_alerts binary")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--durability", default="group,fsync",
                        help="comma-separated serve_alerts --durability "
                             "modes to test: none, group, fsync "
                             "(group commit, one-record window)")
    parser.add_argument("--compact-bytes", type=int, default=200000,
                        help="auto-compaction threshold (low = frequent "
                             "rotations, so kills hit compaction paths)")
    parser.add_argument("--min-kill-s", type=float, default=0.5)
    parser.add_argument("--max-kill-s", type=float, default=2.0)
    parser.add_argument("--ingest-max-s", type=int, default=60)
    parser.add_argument("--seed", type=int, default=None,
                        help="kill-timing seed (default: random, printed)")
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: fresh tempdir)")
    args = parser.parse_args()

    seed = args.seed if args.seed is not None else random.randrange(2**32)
    random.seed(seed)
    print(f"crash_check: seed={seed}", flush=True)

    workdir = args.workdir or tempfile.mkdtemp(prefix="crash_check_")
    ok = True
    try:
        for mode in args.durability.split(","):
            if mode not in ("none", "fsync", "group"):
                sys.exit(f"unknown durability mode: {mode}")
            if not run_mode(args, mode, workdir):
                ok = False
                break
    finally:
        if ok and args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
        elif not ok:
            print(f"crash_check: artifacts kept in {workdir}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
