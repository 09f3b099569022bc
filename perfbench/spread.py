"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-ycsb --seeds 1-10

For every end-to-end metric this prints the median of the runs and the
distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  Runs are sequential, one process at a
time, so they do not compete with each other for the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(median, interquartile range / median) of ``values``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append every run's result line to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, _, last = args.seeds.partition("-")
    values = {}
    for seed in range(int(first), int(last or first) + 1):
        command = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        line = done.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        summary = " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
        )
        print(
            f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
            f"{result['attempted']} {summary}",
            flush=True,
        )
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name, series in values.items():
        if len(series) < 2:
            continue
        median, share = spread(series)
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}"
        print(f"{name:28s} median {median:.6g}  iqr/median {share:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
