"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --first-seed S

Runs every workload of BENCHMARK.json on SEEDS seeds from S on, for
its run_seconds, untraced.  For every workload and end-to-end metric
it prints the median of the runs and the spread: the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound in BENCHMARK.json, and the
median p99 of each op type as a reference figure.  It also reports
whether every run was correct and which shares of failed operations
the runs had.  Results go to perfbench/out/prove-<S>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = 10


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 if constant)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["side"] = json.loads(lines[-2])
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            run_once(workload, seed, seconds)
            for seed in range(args.first_seed, args.first_seed + SEEDS)
        ]
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(
            f"{workload}: {len(runs)} runs, all correct: "
            f"{all(run['correct'] for run in runs)}, failed shares {sorted(shares)}"
        )
        rows = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            rows[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
            flag = "" if rows[name]["spread"] < bound / 3 else "  <-- over a third"
            print(
                f"  {name:16s} median {rows[name]['median']:12.4f}  "
                f"spread {rows[name]['spread']:.4f}  bound {bound}{flag}"
            )
        for name in ("write_p99_us", "read_p99_us"):
            values = [run["side"]["reference"][name] for run in runs]
            rows[name] = {"median": statistics.median(values), "values": values}
            print(f"  {name:16s} median {rows[name]['median']:12.4f}  (reference, not a metric)")
        record[workload] = rows
    out = HERE / "out" / f"prove-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
