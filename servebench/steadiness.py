"""Run the benchmark on several seeds and record each metric's spread.

Run from the repository root::

    python3 servebench/steadiness.py --seeds 1-10 --seconds 30 \
        --out servebench/results/steadiness.json

Each (workload, seed) is one ``run.py`` process, as a benchmark driver
would start it. The spread of a metric is the distance between the
first and third quartile of its values (``statistics.quantiles`` with
``n=4``) as a share of their median; it is compared with the metric's
bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` to a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    report = {"seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(name, seed, json.dumps(result["metrics"]), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": m["bound"],
                "values": values,
            }
        report["workloads"][name] = {
            "seeds": [r["seed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        for metric, row in metrics.items():
            print(f"  {name:<12} {metric:<22} median {row['median']:.6g} "
                  f"spread {row['spread']:.3f} (bound {row['bound']})",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
