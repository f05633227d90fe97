#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-core --seed 1 --seconds 20 --trace 0

The library under test is compiled from ./src together with the
benchmark (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
Exits non-zero, without a result, when the source tree or the build
is missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main(argv):
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    data = os.path.join(build_dir(), "data")
    os.makedirs(data, exist_ok=True)
    proc = subprocess.run([binary, "--data-dir", data] + argv, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
