#!/usr/bin/env python3
"""Build and run the pisort benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inmem-dup --seed 1 --seconds 30 --trace 0

builds `perfbench/` (a Cargo package of its own, built against the
repository's crates by path) in release mode and runs one workload.  The
last line of standard output is the result JSON with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is non-zero when the
build fails, an op fails or an output is rejected.

`--workload all` runs every workload in turn and prints one combined result
line; adding `--heldout` runs each of them a second time on the held-out
seed (`--seed` + HELDOUT_OFFSET), so a claim tuned on one seed can be
checked on inputs it was not tuned on.

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`); spill
files, temporary files and chrome traces go to `.bench_run/`.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["inmem-dup", "stream-fit", "service-spill"]
HELDOUT_OFFSET = 1000
# Variables that would change what the program does; the benchmark decides
# these itself.
SCRUBBED_ENV = ["RAYON_NUM_THREADS", "OBS_TRACE", "PISORT_SPILL_IO", "PISORT_FAULT_PLAN"]
# Beyond the measured seconds: set-up, warm-up, probes and one op overrun.
SLACK_SECONDS = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark; returns the binary's path or None."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def git_commit():
    """The checkout's commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def run_one(binary, workload, seed, seconds, trace, commit):
    """Runs one workload; echoes its output and returns (exit code, result)."""
    run_dir = os.path.join(ROOT, ".bench_run")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmp
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--run-dir", run_dir, "--commit", commit]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out")
        return 1, None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, (lines, result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="with --workload all, also run every workload on the held-out seed")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    commit = git_commit()

    if args.workload != "all":
        code, out = run_one(binary, args.workload, args.seed, args.seconds, args.trace, commit)
        if out is not None:
            print("\n".join(out[0]), flush=True)
        return code

    seeds = [args.seed] + ([args.seed + HELDOUT_OFFSET] if args.heldout else [])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for seed in seeds:
        for workload in WORKLOADS:
            code, out = run_one(binary, workload, seed, args.seconds, args.trace, commit)
            worst = max(worst, code)
            if out is None or out[1] is None:
                log(f"{workload} seed {seed} printed no result")
                return max(worst, 1)
            lines, result = out
            print("\n".join(lines[:-1]), flush=True)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}@{seed}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
