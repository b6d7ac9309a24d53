#!/usr/bin/env python3
"""Builds and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's src/)
into .bench_build/perfbench; later calls rebuild incrementally. The last
line of standard output is the workload's result JSON; the run's detail
file (host fingerprint, git sha, seed, per-job times) and, for traced runs,
the Chrome trace land in .bench_build/out/. Exits non-zero without a result
when the build, a correctness gate or an accounting identity fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
WORKLOADS = ("fit_ct2", "curate_ct2", "ingest_ct4", "serve_ct2")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; True on exit code 0."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no crossmodal sources under {ROOT}/src; nothing to build")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD_DIR, "--target", target,
                       "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(BUILD_DIR, target)


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helpers' unit tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_harness_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} failed with exit code {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            result["correct"] is not True:
        log(f"malformed result: {lines[-1]}")
        return 1
    print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
