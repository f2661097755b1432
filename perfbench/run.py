#!/usr/bin/env python3
"""Build the benchmark and the `ahs` binary from source, then run a workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_points|exact_n2|serve_load \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds both release binaries offline (into $CARGO_TARGET_DIR, default
perfbench/target), runs the workload in a fresh process and passes its
output through: the last stdout line is the result object. `all` runs
the three workloads one after another, each in its own process, and
prints one object whose metric names carry the workload as a prefix.
The exit code is non-zero when a build fails or a correctness gate does.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_points", "exact_n2", "serve_load"]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "ahs-safety", "--bin", "ahs"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def run_one(target, workload, args):
    cmd = [os.path.join(target, "release", "perfbench"), "--workload", workload,
           "--ahs-bin", os.path.join(target, "release", "ahs"),
           "--out-dir", os.path.join(HERE, "out")] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        sys.exit(__doc__)
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    build(target)

    if workload != "all":
        code, lines = run_one(target, workload, rest)
        print("\n".join(lines))
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, lines = run_one(target, name, rest)
        worst = worst or code
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{name} printed no result")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
