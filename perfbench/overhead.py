"""Tracing overhead: traced-minus-untraced difference of each end-to-end metric.

    python3 perfbench/overhead.py --workload tune-bo --seed 1 --seconds 10

Runs the benchmark once untraced and once traced with the same seed; the
traced run records the end-to-end metrics it measured with tracing on in
its trace file, next to the spans.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    untraced = json.loads(run(args.workload, args.seed, args.seconds, 0)[-1])["metrics"]
    traced_lines = run(args.workload, args.seed, args.seconds, 1)
    report = json.loads("\n".join(line[2:] for line in traced_lines[:-1] if line.startswith("# ")))
    with open(report["trace_file"], encoding="utf-8") as fh:
        traced = json.load(fh)["meta"]["end_to_end_traced"]
    print(f"{'metric':24s} {'untraced':>12s} {'traced':>12s} {'difference':>12s}")
    for name, entry in untraced.items():
        base, value = entry["value"], traced[name]
        diff = value - base
        share = f"{100.0 * diff / base:+.1f}%" if base else ""
        print(f"{name:24s} {base:12.5g} {value:12.5g} {diff:+12.5g} {share} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
