#!/usr/bin/env python3
"""Build and run the end-to-end MixQ pipeline benchmark.

Run from the repository root:

    python3 pipeline_bench/run.py --workload cora-t2 --seed 1 --seconds 50 --trace 0

The benchmark package (this directory) is built in release mode against the
repository's crates, into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). The binary's standard output is passed through; its last
line is the result object. Exits non-zero, without a result, when the
repository's crates are missing, the build fails, or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "mixq-pipeline-bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("run.py: the repository's crates/ are missing next to the benchmark",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Cargo reads .cargo/config.toml (target-cpu=native) from the working
    # directory, so build from the repository root.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    binary = os.path.join(ROOT, target, "release", BINARY)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = []

    def read_stdout():
        for line in proc.stdout:
            lines.append(line)

    reader = threading.Thread(target=read_stdout)
    reader.start()
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        reader.join()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    reader.join()
    out = "".join(lines)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print("run.py: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
