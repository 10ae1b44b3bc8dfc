#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the repository root:

  python3 bench/campaign/run.py --workload boom-ucb --seed 1 --seconds 10 --trace 0
  python3 bench/campaign/run.py --workload rocket-service --seed 3 --seconds 10 \
      --trace 0 exec-batch=64          # extra CampaignConfig pairs, exploration only
  python3 bench/campaign/run.py --smoke

The first call configures and builds bench/campaign, which compiles the
mabfuzz library from src/, into .bench_build/campaign; later calls rebuild
incrementally. The benchmark binary writes checkpoints and corpora under a
per-run directory there and this script removes it afterwards. The last
line of standard output is the result object described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "campaign"
BINARY = BUILD / "campaign_bench"


def fail(message: str, code: int = 1) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "campaign_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace: bool) -> set[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[section]}


def check_result(line: str, trace: bool) -> None:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result object has keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(expected - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - expected)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, every workload, both modes")
    parser.add_argument("pairs", nargs="*", metavar="key=value",
                        help="extra CampaignConfig pairs for every campaign")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if any("=" not in pair for pair in args.pairs):
        parser.error("extra arguments must be key=value pairs")

    build()
    workdir = BUILD / f"run-{os.getpid()}"
    if args.smoke:
        command = [str(BINARY), "--smoke"]
    else:
        command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   *args.pairs]
    command += ["--workdir", str(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=4 * args.seconds + 60)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"campaign_bench exited with {proc.returncode}", proc.returncode)
    if not args.smoke:
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("campaign_bench printed no result")
        check_result(lines[-1], args.trace == 1)


if __name__ == "__main__":
    main()
