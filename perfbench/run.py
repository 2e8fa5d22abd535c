#!/usr/bin/env python3
"""Builds and runs the SEDA benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root.  The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) with path dependencies on the repository's crates; it
is built in release mode, offline, into $CARGO_TARGET_DIR (default
.bench_build).  One workload runs in one process; the last line of its
standard output is the result as one JSON object.  `--workload all` runs
every workload untraced and traced, one after the other, and prints each
result.  Spans of traced runs are written to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["mondial-explore", "factbook-olap", "ingest"]


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spans-dir", os.path.join(HERE, "out")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: the benchmark does not build", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "seda-perfbench")
    if args.workload != "all":
        return run(binary, args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= run(binary, workload, args.seed, args.seconds, trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
