#!/usr/bin/env python3
"""Builds the chipmunk-rs benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <sweep|hunts|campaign> --seed <n> \
        --seconds <s> --trace <0|1>

The binary is built into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Standard output ends with the benchmark's one-line JSON
result; the exit code is the benchmark's (non-zero when the build fails or
an output check fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
