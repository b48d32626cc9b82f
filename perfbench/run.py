#!/usr/bin/env python3
"""Builds and runs the pact benchmark.

One workload, from the root of the repository:

    python3 perfbench/run.py --workload xor_count --seed 1 --seconds 50 --trace 0

prints diagnostics on lines starting with '#' and, as its last line, one
JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).  Every workload, untraced and traced, as one table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 50

The build goes to $CARGO_TARGET_DIR, by default .bench_build at the root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["xor_count", "word_count", "serve_window"]


def build():
    """Builds the benchmark and pact-serve; returns the release directory."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/Cargo.toml", "--bin", "perfbench"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "Cargo.toml", "-p", "pact-service", "--bin", "pact-serve"],
    ):
        # Cargo reports on stderr; stdout stays free for the result line.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(ROOT, target, "release")


def run(release, workload, seed, seconds, trace, capture=False):
    command = [
        os.path.join(release, "perfbench"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--serve-bin", os.path.join(release, "pact-serve"),
    ]
    return subprocess.run(command, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def report_all(release, seed, seconds):
    """Runs every workload untraced and traced and prints one table."""
    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            done = run(release, workload, seed, seconds, trace, capture=True)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"{workload} trace={trace} {line}")
            results[trace] = json.loads(lines[-1]) if lines else None
            ok = ok and done.returncode == 0 and bool(results[trace])
        untraced, traced = results[0], results[1]
        if not (untraced and traced):
            print(f"{workload}: no result")
            continue
        print(f"{workload}: correct={untraced['correct'] and traced['correct']} "
              f"attempted={untraced['attempted']} failed={untraced['failed']}")
        for name, m in untraced["metrics"].items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
        for name, m in traced["metrics"].items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}  (traced)")
        plain = untraced["metrics"]["ops_per_s"]["value"]
        with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: ops_per_s {with_trace:.4g} traced against "
              f"{plain:.4g} untraced ({with_trace / plain - 1:+.2%})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    release = build()
    if release is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return report_all(release, args.seed, args.seconds)
    return run(release, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
