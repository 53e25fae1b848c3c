#!/usr/bin/env python3
"""Build the stc benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gate_suite --seed 1 --seconds 15 --trace 0

Builds the `stc` binary and the benchmark in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark with the
given arguments.  Build output goes to stderr; the benchmark's last stdout
line is the result object.  See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["--bin", "stc", "--manifest-path", os.path.join(REPO, "Cargo.toml")],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for build in builds:
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = sys.argv[1:] + ["--stc", os.path.join(release, "stc")]
    sys.exit(subprocess.run([bench] + args).returncode)


if __name__ == "__main__":
    main()
