#!/usr/bin/env python3
"""Build and run the ser-repro benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload inject-crafty --seed 1 --seconds 40 --trace 0

Builds the `ser-repro` binary (the serve daemon) and the benchmark into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark with
the given flags. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Exits non-zero, with
no result, when either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "--bin", "ser-repro"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    daemon = os.path.join(release, "ser-repro")
    return subprocess.run([bench, *sys.argv[1:], "--ser-repro", daemon]).returncode


if __name__ == "__main__":
    sys.exit(main())
