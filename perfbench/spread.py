"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stream --seeds 1-10 [--seconds 10] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A benchmark is steady when each spread stays well
inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from measure import median_and_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    """``1-10`` or a comma list such as ``3,3,3`` (repeats allowed)."""
    if "," in text:
        return [int(seed) for seed in text.split(",")]
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        limits = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {}
    for seed in seed_range(args.seeds):
        output = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(output[-1])
        shown = " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        middle, spread = median_and_spread(series)
        bound = limits.get(name)
        shown = "n/a" if spread is None else f"{spread:.3f}"
        flag = "" if bound is None or spread is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28s} median {middle:12.4f}  spread {shown:>6s}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
