"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workload price_n1000 --seeds 1-10 --seconds 20

For every end-to-end metric it prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, which is how the benchmark's bounds are
judged.
Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,1017")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=RUN.parent.parent,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("nan")
        print(f"{name:38s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
