#!/usr/bin/env python3
"""Builds `prsim` and the benchmark from source, then makes one benchmark run.

    python3 perfbench/run.py --workload read_resident --seed 1 --seconds 14 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run files go to `.bench_work` and are removed at the end.
The server is pinned to the first CPU this process may use and the
benchmark process (load generator and in-process pass) to the second, so
the two never share a core. Once every server has exited, the untraced
byte check of the replies pins one thread to each of these CPUs. The benchmark's last stdout line is the JSON
result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILDS = [
    ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "prsim-cli"],
    ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["read_resident", "read_paged"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in BUILDS:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + build
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))

    cpus = sorted(os.sched_getaffinity(0))
    client_cpu = cpus[1] if len(cpus) > 1 else cpus[0]
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--prsim", os.path.join(target, "release", "prsim"),
        "--work", os.path.join(ROOT, ".bench_work"),
        "--cpus", ",".join(map(str, cpus)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, {client_cpu}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
