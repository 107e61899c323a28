#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <sweep|modes|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Builds `perfbench` and its `fleet_worker` with `cargo build --release
--offline` (into `$CARGO_TARGET_DIR`, else `perfbench/target`), then runs
`perfbench` with the given arguments. Build output goes to standard
error; the benchmark's last line of standard output is its JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--bins", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
