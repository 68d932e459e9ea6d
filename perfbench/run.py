#!/usr/bin/env python3
"""Builds fixbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload dblp_write --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--seconds defaults to run_seconds in BENCHMARK.json. BENCHMARK.json lists
dblp_write and tcmd_remote; xmark_read runs here too (and in --workload all)
but is left out of it, because the host moves its figures more than any
bound allows (see README.md). The build goes to
.bench_build/ and the inputs and databases to .bench_work/, both at the root
of the checkout. Each run is two fixbench processes: `--prepare` generates
the inputs and their truth into the run's directory, then the measuring
process reads them. The last line of standard output is the result JSON of
fixbench. With --workload all, every workload runs untraced and traced, and
the last line maps each workload to its two results.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["xmark_read", "dblp_write", "tcmd_remote"]
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no program sources under {ROOT / 'src'}")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "fixbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    return BUILD / "fixbench"


def run_one(binary, workload, seed, seconds, trace):
    """Runs fixbench once; returns its result dict, or None on failure."""
    workdir = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    common = [str(binary), "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--workdir", str(workdir)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        prepared = subprocess.run(common + ["--prepare"],
                                  timeout=RUN_TIMEOUT_S)
        if prepared.returncode != 0:
            log(f"run.py: fixbench --prepare exited with "
                f"{prepared.returncode}")
            return None
        done = subprocess.run(
            common + ["--trace", str(trace), "--trace-out",
                      str(traces / f"{workload}-seed{seed}.jsonl")],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(done.stdout)
        log(f"run.py: fixbench exited with {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(done.stdout)
        log("run.py: fixbench printed no result line")
        return None
    print("\n".join(lines[:-1]), flush=True)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]

    binary = build()
    if binary is None:
        return 2
    if args.workload != "all":
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         args.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0
    combined = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            result = run_one(binary, workload, args.seed, args.seconds, trace)
            if result is None:
                return 1
            print(json.dumps(result), flush=True)
            combined.setdefault(workload, {})[f"trace{trace}"] = result
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
