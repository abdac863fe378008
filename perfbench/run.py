#!/usr/bin/env python3
"""Builds and runs the procmine end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mine_text --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark
(Release) under .bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench
when that is set; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. A
failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["perfbench", "perfbench_selftest"]


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def main(argv):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    env = dict(os.environ)
    # Keep compiler temporaries inside the build directory.
    env["TMPDIR"] = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        program = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        program = [os.path.join(build_dir, "perfbench"), *argv]
    return subprocess.run(program, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
