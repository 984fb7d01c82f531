#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload blas --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the library from src/ in
Release, plus the runner) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only re-check the build. Build output goes to stderr,
so the runner's JSON result stays the last line of stdout. Everything the
run writes (build tree, private JIT caches, compiler temporaries, traces)
stays under the build directory. Extra arguments go to the runner unchanged
(--corrupt, --calibrate; see bench.cpp).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return False
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j", "3"], stdout=sys.stderr) == 0


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(build_dir, "moma_perfbench"), *args,
           "--cache-root", os.path.join(build_dir, "jit")]
    if arg_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-%s.jsonl" % (arg_value(args, "--workload", "unknown"),
                                arg_value(args, "--seed", "1"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    return subprocess.call(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
