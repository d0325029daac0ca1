#!/usr/bin/env python3
"""Builds and runs the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every run configures and builds the
benchmark (Release) into .bench_build/perfbench of the checkout; only the
first run compiles, later ones only check that the build is up to date.
Build output goes to stderr, and the last line of stdout is the benchmark's
JSON result. Any build failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(targets=("perfbench", "perfbench_traced")):
    """Configures and builds `targets`; returns the build directory.

    The build directory lives inside this checkout, and configure runs every
    time, so a cache made from another source tree fails loudly instead of
    building that tree's code.
    """
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", "4", "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    binary = "perfbench_traced" if trace == "1" else "perfbench"
    trace_dir = os.path.join(os.path.dirname(out), "traces")
    proc = subprocess.run(
        [os.path.join(out, binary), *argv, "--trace-dir", trace_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
