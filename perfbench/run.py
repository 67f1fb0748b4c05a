#!/usr/bin/env python3
"""Build perfbench from source (Release) and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady|churn|stress|fanin \
        --seed N --seconds S --trace 0|1 [--reps N] [--rep-size N]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); its output goes to stderr so the last
stdout line stays the benchmark's JSON result. Exits non-zero, printing no
result, when the vsgc sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then an incremental build. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "app", "world.hpp")):
        print("perfbench: vsgc sources not found under src/", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build(build_dir())
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
