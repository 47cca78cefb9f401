#!/usr/bin/env python3
"""Build scalebench from this checkout's sources, then run it.

    python3 scalebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 scalebench/run.py --self-test

The build lives in .bench_build/scalebench at the checkout root and is
incremental: the first run configures and compiles the scalemd library and
the benchmark, later runs only relink what changed. Build output goes to
stderr so the benchmark's JSON result stays the last line of stdout.
Exits non-zero without a result when the checkout holds no ScaleMD sources.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scalebench")


def fail(msg, code=2):
    print("scalebench: " + msg, file=sys.stderr)
    sys.exit(code)


def step(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ScaleMD sources in %s; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD] + generator)
    step(["cmake", "--build", BUILD, "--target"] + targets
         + ["-j", str(os.cpu_count() or 1)])


def main(argv):
    if argv == ["--self-test"]:
        build(["scalebench_selftest"])
        binary, args = os.path.join(BUILD, "scalebench_selftest"), []
    else:
        build(["scalebench"])
        binary, args = os.path.join(BUILD, "scalebench"), argv
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
