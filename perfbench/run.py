#!/usr/bin/env python3
"""Build and run the refscan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which pulls
in the refscan libraries from src/) as a Release build under
.bench_build/perfbench, then runs the perfbench binary with the given arguments.
Its stdout passes through unchanged; its last line is the JSON result.
Build output goes to stderr. Exits non-zero, printing no result, when the
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [BINARY, *sys.argv[1:]]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the benchmark binary timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
