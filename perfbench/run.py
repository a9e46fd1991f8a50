#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {paper-grid|sharded-cell|trace-churn} \
        --seed N --seconds S --trace {0|1} [--smoke]

The first call configures and builds `perfbench` (and the simulator library
it links) under `.bench_build/` with CMake; later calls only rebuild what
changed. Build output goes to stderr. The benchmark's report goes to stdout,
and its last line is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`). See perfbench/README.md.

Exits non-zero, without printing a result, when the sources are missing, the
build fails, or the benchmark fails or overruns its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper-grid", "sharded-cell", "trace-churn")
# A run must end within 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"simulator sources not found under {ROOT}", 3)
    if shutil.which("cmake") is None:
        fail("cmake not found", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("CMake configure failed", 4)
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 4)


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and isinstance(result["metrics"], dict) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs for the self-test (figures are meaningless)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]", 2)

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    # The simulator reads NUMALP_* knobs from the environment in some entry
    # points; the benchmark's configuration is fixed, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NUMALP_")}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark failed (exit code {proc.returncode})")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
