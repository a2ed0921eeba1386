#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark command.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory); later runs reuse the build.
All output of the build goes to stderr, so the last line of stdout is the
benchmark's JSON result. A failed build exits non-zero without a result.
The benchmark binary runs pinned to the lowest-numbered CPU this process
may use: the vCPUs of a shared host differ in speed, and a process that
lands on either one from run to run measures that difference.
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env=env)
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
