#!/usr/bin/env python3
"""Builds and runs the STEM+ROOT benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the benchmark crate in
``perfbench/.crate`` (offline, release, into ``$CARGO_TARGET_DIR``, by
default ``.bench_build``), runs the benchmark binary for one workload in a
process of its own, pinned to one CPU, checks that the metrics it reports
are exactly the ones ``BENCHMARK.json`` names, and prints its result as
the last line of standard output. Everything else the binary prints goes
to standard error. The exit code is the binary's: 0 only when every
output check passed and no operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRATE = os.path.join(HERE, ".crate")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args()


def build(env):
    manifest = os.path.join(CRATE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def pin_to_one_cpu():
    """Pins this process, and so the benchmark it starts, to one CPU.

    The workloads are single-threaded, but the library's streamed ground
    truth hands blocks from a producer thread to the simulating thread.
    On a VM, waking a thread on another, idle vCPU waits for the host to
    run that vCPU, which makes the hand-offs as slow as the host is busy.
    On one CPU both threads share the core the host-speed calibration
    measures. The highest-numbered allowed CPU is taken, as CPU 0 usually
    serves more interrupts.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        print(f"perfbench: not pinned to one CPU: {e}", file=sys.stderr)


def check_result(line, spec, trace):
    """Parses the binary's result line and checks its shape."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys: {sorted(result)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {units}")
    return result


def main():
    spec = load_spec()
    args = parse_args(spec)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(env)
    pin_to_one_cpu()

    exe = os.path.join(target, "release", "stem-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {exe}: {e}")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed} took "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    if not lines:
        fail(f"no result (exit code {done.returncode})", done.returncode or 2)
    result = check_result(lines[-1], spec, args.trace)
    print(json.dumps(result))
    if done.returncode == 0 and not result["correct"]:
        fail("result is marked incorrect", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
