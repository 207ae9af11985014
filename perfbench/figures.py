#!/usr/bin/env python3
"""Reference figures: the benchmark on several seeds, summarised.

    python3 perfbench/figures.py --seeds 101-110 --trace 0
    python3 perfbench/figures.py --seeds 1,1 --trace 1 --workload sweep-ref

Runs `run.py` once per (workload, seed), one run at a time, for the
run length in BENCHMARK.json, and prints a Markdown table per workload:
for each metric the median over the runs, the quartiles, and the spread
(distance between the quartiles as a share of the median), next to the
metric's bound. Also prints the share of failed operations. With
--trace 1 and a seed given more than once, it also checks that every
count (calls, RBs, MACs, bytes) repeats exactly between the runs of that
seed. Exits 1 if a run fails, reports incorrect outputs, or a count does
not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110", help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default every workload")
    args = parser.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, attempted, failed = {}, 0, 0
        counts_by_seed = {}
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            counts = {name: metric["value"] for name, metric in result["metrics"].items()
                      if metric["unit"] in ("count", "bytes")}
            counts_by_seed.setdefault(seed, []).append(counts)
        print(f"\n### {workload} (trace {args.trace}, seeds {args.seeds}, "
              f"{spec['run_seconds']} s runs; failed {failed} of {attempted})\n")
        print("| metric | unit | median | quartiles | spread | bound |")
        print("|---|---|---|---|---|---|")
        for metric in declared:
            runs = values.get(metric["name"], [])
            if not runs:
                continue
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median,) * 3
            spread = f"{(q3 - q1) / median:.3f}" if median else "-"
            print(f"| `{metric['name']}` | {metric['unit']} | {median:.4g} | "
                  f"{q1:.4g}–{q3:.4g} | {spread} | {metric.get('bound', '-')} |")
        for seed, runs in counts_by_seed.items():
            if args.trace and len(runs) > 1:
                differ = sorted(k for k in runs[0] if any(r[k] != runs[0][k] for r in runs))
                print(f"\nCounts over {len(runs)} traced runs of seed {seed}: "
                      + (f"differ in {', '.join(differ)}" if differ
                         else f"all {len(runs[0])} repeat exactly"))
                ok &= not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
