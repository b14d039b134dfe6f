#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload update_storm --seed 1 --seconds 20 --trace 0

Builds the ruco library from src/ and the perfbench program into
.bench_build/perfbench (under $CARGO_TARGET_DIR instead, when set), then runs
one workload.  Build output goes to stderr; the last line of stdout is the
result JSON.  Exits non-zero, without a result, when the sources are missing,
the build fails or the run does not finish.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("update_storm", "read_mostly", "verify")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 60


def step(cmd, timeout):
    """Runs a build command with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: {ROOT} holds no src/CMakeLists.txt; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
            return 1
    if not step(["cmake", "--build", build, "-j", jobs, "--target", "perfbench"],
                BUILD_TIMEOUT_S):
        return 1

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--timeline",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=args.seconds + RUN_MARGIN_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
