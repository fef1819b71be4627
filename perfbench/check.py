#!/usr/bin/env python3
"""Steadiness checks of the repository benchmark, at full scale.

    python3 perfbench/check.py spread  --workload disk_zoom [--runs 10] [--first-seed 1]
    python3 perfbench/check.py seeds   --workload disk_zoom [--runs 5] [--seeds 1 2]

spread: runs the workload --runs times, each with the next seed, and reports
for every end-to-end metric the median, the quartiles
(statistics.quantiles(n=4)) and the interquartile distance as a share of the
median, against the metric's bound in BENCHMARK.json. A spread above the
bound fails, setup_s included; the target is a third of the bound.

seeds: runs the workload --runs times on each of two seeds, alternating,
and checks that the second seed's median of every end-to-end metric lies
within the first seed's median ± the metric's bound.

Each run goes through perfbench/run.py with --seconds run_seconds. Exits 1
when a check fails or a run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {done.returncode}): {workload} seed "
                 f"{seed}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"incorrect run: {workload} seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def cmd_spread(args) -> int:
    runs = []
    for i in range(args.runs):
        metrics = run_once(args.workload, args.first_seed + i)
        runs.append(metrics)
        print(f"seed {args.first_seed + i}: " + " ".join(
            f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
    failed = False
    print(f"\n{args.workload}: {args.runs} runs")
    for name, bound in BOUNDS.items():
        values = [r[name] for r in runs]
        q1, med, q3, share = spread(values)
        verdict = ("ok" if share <= bound / 3 else
                   "above target" if share <= bound else "FAIL")
        failed |= share > bound
        print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {share:7.4f}  bound {bound:5.3f}  "
              f"{verdict}")
    return 1 if failed else 0


def cmd_seeds(args) -> int:
    first, second = args.seeds
    by_seed = {first: [], second: []}
    for i in range(args.runs):
        for seed in ((first, second) if i % 2 == 0 else (second, first)):
            by_seed[seed].append(run_once(args.workload, seed))
    failed = False
    print(f"{args.workload}: seeds {first} and {second}, {args.runs} runs "
          f"each")
    for name, bound in BOUNDS.items():
        a = statistics.median(r[name] for r in by_seed[first])
        b = statistics.median(r[name] for r in by_seed[second])
        within = abs(b - a) <= bound * abs(a)
        failed |= not within
        print(f"  {name:18s} seed {first} {a:12.6g}  seed {second} "
              f"{b:12.6g}  diff {((b - a) / a if a else 0):+8.4f}  "
              f"bound {bound:5.3f}  {'ok' if within else 'FAIL'}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p = sub.add_parser("seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args()
    return cmd_spread(args) if args.command == "spread" else cmd_seeds(args)


if __name__ == "__main__":
    sys.exit(main())
