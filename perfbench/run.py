#!/usr/bin/env python3
"""Build the system from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steady-n16 --seed 1 --seconds 10 --trace 0

Builds `ibcf` (the served binary) and the `perfbench` binary into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. Build
output goes to stderr; stdout ends with one JSON result line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["steady-n16", "fleet-mixed", "large-n512", "tune-paper"]
# A run must finish well inside the 180 s it may take.
RUN_TIMEOUT_S = 170


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ibcf-cli"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the root of a checkout (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1
    env["PERFBENCH_REVISION"] = revision()
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--ibcf", os.path.join(release, "ibcf"),
    ]
    # A process group of its own, so a timeout can stop the servers the
    # benchmark binary started along with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out)
    if proc.returncode != 0:
        return proc.returncode if proc.returncode > 0 else 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: no result line was printed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
