#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload explore_http --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
The program (perfbench/CMakeLists.txt, which builds the rasterjoin library
from the checkout's own sources) is configured and built into
$CARGO_TARGET_DIR, or .bench_build at the checkout root when that is unset;
a first build takes about a minute, later runs only re-check it. Build
output goes to <build>/perfbench-build.log, so standard output carries only
the program's report, whose last line is the JSON result. Scratch files
(column store, block file, span dumps) live under <build>/work.

Exit status: 0 on a correct run, 1 on a divergence, a failed build or a
run over the time limit, 2 when the checkout holds no rasterjoin sources.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("explore_http", "exact_sharded", "disk_zoom")
RUN_TIMEOUT_S = 170
# Build and first run together stay under the 900 s a first run may take.
BUILD_TIMEOUT_S = 600


def tree_digest(root: Path) -> str:
    """A digest of the sources the program builds from."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def git(root: Path, *args: str):
    """Standard output of a git command in `root`, or None."""
    if not (root / ".git").exists() or not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_identity(root: Path) -> str:
    """The git commit when the sources match it; the commit plus a digest
    of the sources when they have uncommitted changes; the digest alone
    outside a git repository."""
    head = git(root, "rev-parse", "HEAD")
    if head is None:
        return tree_digest(root)
    changes = git(root, "status", "--porcelain", "--untracked-files=all",
                  "--", "CMakeLists.txt", "src", "perfbench")
    if changes == "":
        return head
    return f"{head}+dirty {tree_digest(root)}"


def build_program(bench_dir: Path, build: Path) -> Path:
    build.mkdir(parents=True, exist_ok=True)
    log_path = build / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit(f"perfbench: build timed out; see {log_path}")
            if done.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                sys.exit(f"perfbench: build failed; see {log_path}")
    return build / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (self-test only)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one reference bit; the run must fail")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"perfbench: no rasterjoin sources at {root}", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    binary = build_program(root / "perfbench", build)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--scale", repr(args.scale),
               "--work-dir", str(build / "work"),
               "--commit", source_identity(root)]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
