#!/usr/bin/env python3
"""Builds and runs the ReMon benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload redis_rw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every workload, one seed

The first form builds perfbench/ (CMake, Release) into the directory named by
CARGO_TARGET_DIR, default .bench_build, runs one workload and passes its output
through: the last line is the JSON result. --trace 1 also writes a Chrome
trace-event file (load it in Perfetto) into <build dir>/traces/.

--all runs every workload, prints each metric by name with its unit, and exits
non-zero if any workload failed an output check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["redis_rw", "redis_ro", "fleet_swarm", "remote_recovery"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the harness; returns the executable's path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "remon_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "remon_perfbench")


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout text, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and check every output")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")

    exe = build()
    if not args.all:
        text, _ = run_one(exe, args.workload, args.seed, args.seconds,
                          args.trace == 1)
        sys.stdout.write(text)
        return 0

    ok = True
    for workload in WORKLOADS:
        text, result = run_one(exe, workload, args.seed, args.seconds,
                               args.trace == 1)
        ok = ok and result["correct"]
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for line in text.splitlines():
            if line.startswith("CHECK FAILED"):
                print("  " + line)
        for name, m in result["metrics"].items():
            print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, IndexError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
