#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_static --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the simulator sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    plan = BENCH_DIR / "plans" / f"{args.workload}.plan"
    if not plan.is_file():
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be non-negative", file=sys.stderr)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary),
           "--plan", str(plan),
           "--reference", str(BENCH_DIR / "reference" / f"{args.workload}.digest"),
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
