#!/usr/bin/env python3
"""Builds columbia_bench from source and runs one workload.

Usage (from the repository root):

    python3 columbia_bench/run.py --workload nsu3d-wing --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
incremental, so only the first run of a checkout compiles. All arguments
are passed to the binary, whose last stdout line is the JSON result.
Result files land in <build dir>/results unless --out is given.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("columbia_bench: solver sources (src/) not found next to "
              "the benchmark; nothing to build", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.call(step, stdout=sys.stderr, cwd=ROOT) != 0:
            print("columbia_bench: build failed", file=sys.stderr)
            return 2
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build, "results")]
    return subprocess.call([os.path.join(build, "columbia_bench")] + args,
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
