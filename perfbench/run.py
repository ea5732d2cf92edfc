#!/usr/bin/env python3
"""Builds and runs one workload of the webdex benchmark (README.md).

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The first run configures and compiles
perfbench/ together with the library sources under src/ into
.bench_build/perfbench (Release); later runs only check that build is up
to date.  Build output goes to stderr.  The program's report goes to
stdout, and its last line is the JSON result.  The exit code is not 0,
and no result is printed, if the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_SECONDS = 850
RUN_SECONDS = 170


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        # Runs sharing a checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # The Makefile appears only once a configure step has succeeded.
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        deadline = time.monotonic() + BUILD_SECONDS
        for step in steps:
            left = deadline - time.monotonic()
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, left))
            if done.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "webdex_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "query", "mutate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the benchmark's own test")
    parser.add_argument("--host-threads", type=int, default=None)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.host_threads is not None:
        cmd += ["--host-threads", str(args.host_threads)]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_SECONDS, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"perfbench: run failed ({done.returncode})", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
