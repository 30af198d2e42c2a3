#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe from source
with dune's release profile into .bench_build/, then measures one run of
the workload as PARTS parts of S / PARTS seconds each, one after another,
each in a fresh process with its own inputs (seed N, part i). It passes
every part's output through, then prints the run's result as the last
stdout line: each metric is the median over the parts, and the op counts
are summed. The exit code is non-zero when the build fails or any part
fails an output check. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
PARTS = 5
RUN_TIMEOUT_S = 170


def run_part(args, part, env, deadline):
    """Run one part; return its result object, or exit on failure."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PARTS), "--part", str(part),
           "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        sys.exit(f"perfbench: part {part} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < PARTS:
        sys.exit(f"perfbench: --seconds must be at least {PARTS}")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (no dune-project or lib/ here)")

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    # The traced run reads GC pauses from the runtime_events ring, whose
    # file goes to this directory.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(BUILD_DIR)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = [run_part(args, part, env, deadline) for part in range(PARTS)]

    metrics = {}
    for name, first in parts[0]["metrics"].items():
        value = statistics.median(p["metrics"][name]["value"] for p in parts)
        metrics[name] = {"value": value, "unit": first["unit"]}
    print(json.dumps({
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
