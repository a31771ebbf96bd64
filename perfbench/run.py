#!/usr/bin/env python3
"""Build and run the riskan end-to-end benchmark (perfbench).

Run from the root of a source checkout:

  python3 perfbench/run.py --workload rollup_secondary --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark
(Release, SIMD variants compiled in) under .bench_build/perfbench; later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the chrome
trace is written to .bench_build/traces/<workload>-<seed>.json, readable
by tools/trace_summary.py.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("rollup_secondary", "pipeline_outofcore", "whatif_sweep")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no riskan sources beside {HERE}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.self_test:
            binary = build("perfbench_tests")
            return subprocess.run([binary], cwd=BUILD).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        binary = build("riskan_perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    stage = os.path.join(ROOT, ".bench_build", "stage")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(stage, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--stage-dir", stage,
               "--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
