#!/usr/bin/env python3
"""Builds the benchmark from source and runs a workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|smoke] [--corrupt <gate>]

Run it from the repository root. The build (Release, through
perfbench/CMakeLists.txt) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; generated inputs go to a scratch directory
inside it that is removed when the run ends. Build output goes to
stderr. The benchmark's own output, ending in the result JSON line, goes
to stdout. The exit status is the benchmark's: 0 when every correctness
gate held, 1 when one failed, 2 or more when nothing was measured.
`--workload all` runs every workload of BENCHMARK.json in turn, each in
its own process, and exits with the worst status.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "smoke"])
    parser.add_argument("--corrupt", default="none")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe())
    status = 0
    for workload in workloads:
        work_dir = tempfile.mkdtemp(prefix="work-", dir=build_dir)
        try:
            result = subprocess.run(
                [binary, "--workload", workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace,
                 "--scale", args.scale, "--corrupt", args.corrupt,
                 "--work-dir", work_dir],
                env=env, timeout=RUN_TIMEOUT_S)
            rc = result.returncode if result.returncode >= 0 else 4
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            rc = 5
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        status = max(status, rc)
    return status


if __name__ == "__main__":
    sys.exit(main())
