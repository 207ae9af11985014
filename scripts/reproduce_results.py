#!/usr/bin/env python3
"""Regenerate the headline result tables and traces.

Runs the full rate sweep for all four alignment strategies and the
three-slot scoring walkthrough.  Writes everything under results/
(override with --out):

    sweep/sweep.csv              steady-state metrics per (strategy, rate)
    sweep/trace.csv              per-frame mean center-cell power per
                                 (strategy, rate): the convergence traces,
                                 at 1 and 2 Mbps among the other rates
    sweep/resolved_config.yaml   the configuration, with its hash
    walkthrough/algorithm_trace.csv

Expect a few minutes of runtime at the default scale (20 drops, 560
drops simulated).
"""

import argparse
import sys

from dtxalign.cli import main as cli_main


def jobs(out: str, drops: int, seed: int) -> list:
    """The dtx-sim argument lists this script runs, in order."""
    return [
        ["sweep", "--rates", "0.25,0.5,1.0,1.5,2.0,2.5,3.0",
         "--strategies", "all", "--out", f"{out}/sweep",
         "--drops", str(drops), "--seed", str(seed)],
        ["trace-algorithm", "--steps", "6", "--out", f"{out}/walkthrough"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="results")
    parser.add_argument("--drops", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for argv in jobs(args.out, args.drops, args.seed):
        print(f"$ dtx-sim {' '.join(argv)}", flush=True)
        rc = cli_main(argv)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
