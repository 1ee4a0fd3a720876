#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` runs the untraced binary (end-to-end metrics), `--trace 1` the
traced one (per-layer metrics). Build output goes to stderr; the last line
of stdout is the JSON result. The exit code is the binary's: 0 when every
correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    args = sys.argv[1:]
    traced = False
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            traced = value == "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
