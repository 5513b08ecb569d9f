#!/usr/bin/env python3
"""Build and run the demotx benchmark for one workload.

    python3 perfbench/run.py --workload <list|hashset|bank|kv> --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree.  The first call configures and builds
the driver (perfbench/CMakeLists.txt, compiling the library from src/)
into .bench_build/; later calls only let ninja confirm it is current.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  Build output and the driver's own
progress line go to stderr.  Without the library sources next to
perfbench/ the script exits non-zero and prints no result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("list", "hashset", "bank", "kv")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "demotx_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no demotx sources at {ROOT / 'src'}; nothing to build")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "demotx_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def valid(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    if result["attempted"] < 1 or not result["metrics"]:
        return False
    for m in result["metrics"].values():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # Set-up plus the measured seconds, with generous slack; a hung run
    # is killed (and reaped) rather than left behind.
    limit = 60 + 3 * args.seconds
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {limit:.0f} s; killed")
        return 3
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("driver printed no result line")
        return 5
    if not valid(result):
        log("driver result line is malformed")
        return 5
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
