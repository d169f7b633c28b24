#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark once per seed on each named workload and prints, for
every metric, the median over the runs and the quartile spread: the
distance between the first and third quartile as a share of the median
(Python's `statistics.quantiles(values, n=4)`).

    python3 perfbench/spread.py --workloads graph_square --seeds 1-5 --seconds 20

Run it from the repository root after building the benchmark
(`cargo build --release --manifest-path perfbench/Cargo.toml`). The runs
are untraced: the spreads are those of the end-to-end metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument(
        "--binary",
        default=os.path.join(os.environ.get("CARGO_TARGET_DIR", "perfbench/target"), "release", "perfbench"),
    )
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [args.binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
            line = out.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {line}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        print(f"## {workload}: {len(seeds(args.seeds))} runs, {args.seconds} s each")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"{name:36} median {med:16.6f}  spread {spread:.4f}  min {min(vs):.6f}  max {max(vs):.6f}")


if __name__ == "__main__":
    main()
