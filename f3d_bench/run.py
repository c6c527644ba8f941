#!/usr/bin/env python3
"""Build f3d_bench from this checkout, then run it.

    python3 f3d_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed to the f3d_bench binary (see README.md). The
build lives in $CARGO_TARGET_DIR/f3d_bench (default .bench_build/f3d_bench,
relative to the working directory); the first run configures and builds
it, later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), "f3d_bench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: building f3d_bench failed\n")
            return 1
    binary = os.path.join(build_dir, "f3d_bench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--cache", os.path.join(build_dir, "inputs")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
