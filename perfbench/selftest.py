#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale (about two minutes).

    python3 perfbench/selftest.py

For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, and a traced run every per-layer metric, all runs correct;
  * the exact counts (gpu.*_per_query, data.blocks_*) repeat exactly across
    two traced runs of the same seed;
  * a run whose reference has one flipped bit (--corrupt-expected) reports
    "correct": false and exits non-zero: the correctness gate trips.
Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.05"
SECONDS = "2"
EXACT_COUNTS = ("gpu.fragments_per_query", "gpu.vertices_per_query",
                "gpu.pip_tests_per_query", "gpu.atomic_adds_per_query",
                "gpu.bytes_transferred_per_query", "gpu.batches_per_query",
                "gpu.render_passes_per_query",
                "data.blocks_scanned_per_query", "data.blocks_pruned_share")


def run(workload: str, seed: int, trace: int, *extra: str):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace),
               "--scale", SCALE, *extra]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result, done.stderr


def fail(message: str) -> None:
    print("FAIL:", message)
    sys.exit(1)


def check_metrics(workload: str, result: dict, expected: list) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        fail(f"{workload}: metric names differ: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail(f"{workload}: {name} has unit {got[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        print(f"  {name:36s} {got[name]['value']:>16.6g} {unit}")


def main() -> int:
    for w in SPEC["workloads"]:
        workload = w["name"]
        print(f"{workload}: untraced run")
        code, result, err = run(workload, 1, 0)
        if code != 0 or result is None or not result["correct"]:
            fail(f"{workload}: untraced run failed (exit {code})\n{err}")
        if result["failed"] != 0:
            fail(f"{workload}: {result['failed']} failed requests")
        check_metrics(workload, result, SPEC["end_to_end"])

        print(f"{workload}: two traced runs, seed 1")
        traced = []
        for _ in range(2):
            code, result, err = run(workload, 1, 1)
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload}: traced run failed (exit {code})\n{err}")
            traced.append(result)
        check_metrics(workload, traced[0], SPEC["per_layer"])
        for name in EXACT_COUNTS:
            a = traced[0]["metrics"][name]["value"]
            b = traced[1]["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: exact count {name} differs: {a} vs {b}")
        print(f"  exact counts repeat: {', '.join(EXACT_COUNTS)}")

        print(f"{workload}: corrupted reference")
        code, result, _ = run(workload, 1, 0, "--corrupt-expected")
        if code == 0 or result is None or result["correct"]:
            fail(f"{workload}: a corrupted reference did not trip the gate "
                 f"(exit {code}, result {result})")
        print(f"  gate tripped: exit {code}, correct=false")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
