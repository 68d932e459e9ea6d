#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed through run.py, in
--sets sets of runs over the same seeds (default 2; every workload of set 1
before set 2). Per set and end-to-end metric it reports the median, the
quartiles and the spread (interquartile range as a share of the median);
between the sets, how much worse each later median is than the first, as a
share of it. Both are compared with the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads xmark_read,dblp_write] \
        [--seeds 1-10] [--sets 2] [--seconds 12] [--out perfbench/steadiness.json]

    python3 perfbench/steady.py --counts dblp_write --seeds 7

With --counts, it instead makes two traced runs of one workload with the
first seed and checks that every per-layer count repeats exactly.
Runs are sequential; each builds nothing new after the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics that are times, or ratios of times, and so never repeat.
TIMED_UNITS = {"ms", "us", "s"}
TIMED_RATIOS = {"trace.overhead_ratio", "core.index_speedup"}


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"{workload} seed {seed}: run failed", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_counts(workload, seed, seconds):
    first, second = (run(workload, seed, seconds, 1) for _ in range(2))
    if first is None or second is None:
        return 1
    differ = 0
    for name, m in first["metrics"].items():
        if m["unit"] in TIMED_UNITS or name in TIMED_RATIOS:
            continue
        other = second["metrics"][name]["value"]
        same = m["value"] == other
        differ += not same
        print(f"  {name:34s} {m['value']:18.6f} {other:18.6f} "
              f"{'same' if same else 'DIFFERENT'}")
    print(f"{workload} seed {seed}: {differ} counts differ")
    return 1 if differ else 0


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_set(workload, seeds, seconds):
    """Runs the workload once per seed; returns the set's record."""
    values = {}
    failed = attempted = 0
    correct = True
    started = time.time()
    for seed in seeds:
        result = run(workload, seed, seconds, 0)
        if result is None:
            return None
        if not result["correct"]:
            print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            correct = False
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: {len(seeds)} runs in {time.time() - started:.0f} s, "
          f"{failed} of {attempted} ops failed, correct {correct}")
    rows = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else float("inf"),
                      "values": vals}
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": rows}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--sets", type=int, default=2,
                    help="sets of runs over the same seeds, one after another")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--counts", metavar="WORKLOAD")
    args = ap.parse_args()
    if args.counts:
        return check_counts(args.counts, args.seeds[0], args.seconds)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {"seconds": args.seconds, "seeds": args.seeds,
              "workloads": {w: {"sets": []} for w in workloads}}
    for k in range(args.sets):
        print(f"== set {k + 1} of {args.sets}")
        for workload in workloads:
            result = one_set(workload, args.seeds, args.seconds)
            if result is None:
                return 1
            record["workloads"][workload]["sets"].append(result)

    # Within a set: spread (IQR / median). Between sets: how much worse the
    # later set's median is than the first's, as a share of the first.
    worst_spread = worst_gap = 0.0
    for workload in workloads:
        sets = record["workloads"][workload]["sets"]
        gaps = {}
        print(f"{workload}:")
        for name, first in sets[0]["metrics"].items():
            m = metrics.get(name, {})
            bound = m.get("bound")
            medians = [s["metrics"][name]["median"] for s in sets]
            spreads = [s["metrics"][name]["spread"] for s in sets]
            sign = 1 if m.get("better", "lower") == "lower" else -1
            worse = max(sign * (x - medians[0]) / medians[0]
                        for x in medians) if medians[0] else 0.0
            gaps[name] = {"medians": medians, "spreads": spreads,
                          "worse_by": worse, "bound": bound}
            if bound is not None:
                worst_spread = max(worst_spread, max(spreads) / bound)
                worst_gap = max(worst_gap, worse / bound)
            print(f"  {name:26s} medians "
                  + " ".join(f"{x:11.4f}" for x in medians)
                  + "  spreads " + " ".join(f"{x:6.3f}" for x in spreads)
                  + f"  worse by {worse:6.3f}  bound {bound}")
        record["workloads"][workload]["between_sets"] = gaps
    print(f"largest spread / bound: {worst_spread:.3f}; largest "
          f"between-set worsening / bound: {worst_gap:.3f}")
    record["largest_spread_over_bound"] = worst_spread
    record["largest_worsening_over_bound"] = worst_gap
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
