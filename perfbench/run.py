#!/usr/bin/env python3
"""Builds the MammothDB loopback benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload point|scan|htap --seed N \
        --seconds S --trace 0|1

The engine (src/) and the benchmark (perfbench/) are built with CMake into
.bench_build/ at the repository root; later runs reuse that build. Build
output goes to stderr. The benchmark binary prints its report to stderr and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. Scratch files (the htap database directory,
result details, traced spans) go to .bench_build/work/.

Exits non-zero, without a result line, when the engine sources are missing,
the build fails, or the benchmark fails or runs over its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["point", "scan", "htap"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("engine sources not found at " + os.path.join(ROOT, "src"))
    if not build():
        return fail("build failed")

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD_DIR, "work"),
           "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return 0 if code == 0 else fail("benchmark exited with %d" % code)


if __name__ == "__main__":
    sys.exit(main())
