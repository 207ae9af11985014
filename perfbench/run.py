#!/usr/bin/env python3
"""Benchmark of the dtxalign simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (see workloads.py) for about S seconds,
at least two, and checks every round's outputs. The last line of standard
output is a JSON object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a run that alternates untraced and traced rounds. The line
before it records the machine and the raw samples.

An operation is one round. It fails if the program raises, or if a
traced round's sampled oracle check finds a mismatch. `correct` is false
if the outputs of a round that did not fail break a model property, or if
two rounds of the run disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2          # a median, and a repeat to compare against
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

# per-layer metric -> (kind, tracer key); kinds: time, self, calls, count, bytes
LAYER_METRICS = {
    "channel.compute_sinr_s": ("time", "channel.compute_sinr"),
    "channel.compute_sinr_calls": ("calls", "channel.compute_sinr"),
    "channel.interference_macs": ("count", "channel.interference_macs"),
    "scheduler.allocate_from_bits_s": ("time", "scheduler.allocate_from_bits"),
    "scheduler.allocate_from_bits_calls": ("calls", "scheduler.allocate_from_bits"),
    "scheduler.rbs_scheduled": ("count", "scheduler.rbs_scheduled"),
    "strategies.next_priority_s": ("time", "strategies.next_priority"),
    "strategies.next_priority_calls": ("calls", "strategies.next_priority"),
    "strategies.record_used_s": ("time", "strategies.record_used"),
    "channel.build_link_gains_s": ("time", "channel.build_link_gains"),
    "channel.build_link_gains_calls": ("calls", "channel.build_link_gains"),
    "geometry.drop_mobiles_s": ("time", "geometry.drop_mobiles"),
    "geometry.drop_mobiles_calls": ("calls", "geometry.drop_mobiles"),
    "power.total_power_s": ("time", "power.total_power"),
    "power.total_power_calls": ("calls", "power.total_power"),
    "engine.run_drop_s": ("time", "engine.run_drop"),
    "engine.run_drop_calls": ("calls", "engine.run_drop"),
    "engine.self_s": ("self", "engine.run_drop"),
    "output.write_s": ("time", "output.write"),
    "output.bytes_written": ("bytes", "output.bytes_written"),
    "cli.parse_config_s": ("time", "cli.parse_config"),
}
UNITS = {"time": "s", "self": "s", "calls": "count", "count": "count", "bytes": "bytes"}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def time_setup(workload_name: str, cfg_path: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter, up to the point
    where the first drop would start."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           workload_name, cfg_path, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {child.returncode})")
    return elapsed


def layer_values(tracer) -> dict:
    table = {"time": tracer.time, "self": tracer.self_time,
             "calls": tracer.calls, "count": tracer.counts, "bytes": tracer.counts}
    return {name: table[kind][key] for name, (kind, key) in LAYER_METRICS.items()}


class Run:
    """Rounds of one workload and what they measured."""

    def __init__(self, workload, program, cfg_path: str, seed: int, outdir: str):
        self.workload = workload
        self.program = program
        self.cfg_path = cfg_path
        self.seed = seed
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.round_s = []          # untraced rounds
        self.traced_round_s = []
        self.setup_s = []
        self.first_round_peak_kib = None
        self.layers = []           # layer_values() of each traced round
        self.oracle_checks = {}
        self.problems = []
        self.reference = None

    def _round(self, tracer) -> None:
        self.attempted += 1
        clock = tracer.now if tracer else time.perf_counter
        try:
            t0 = clock()
            raw = self.workload.execute(self.program, self.cfg_path, self.seed, self.outdir)
            elapsed = clock() - t0
        except Exception:
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return
        if tracer:
            self.traced_round_s.append(elapsed)
            self.layers.append(layer_values(tracer))
            self.oracle_checks = {k: v for k, v in tracer.counts.items()
                                  if k.startswith("oracle.")}
            if tracer.problems:
                print(f"round {self.attempted}: oracle mismatch: {tracer.problems[:5]}",
                      file=sys.stderr)
                self.failed += 1
                return
        else:
            self.round_s.append(elapsed)
        try:
            fingerprint, problems = self.workload.check(raw, self.outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fingerprint, problems = None, [f"outputs unreadable: {exc!r}"]
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            problems.append("results differ from the run's first round")
        self.problems += [f"round {self.attempted}: {p}" for p in problems]

    def _time_setups(self, count: int) -> None:
        while len(self.setup_s) < count:
            self.setup_s.append(time_setup(self.workload.name, self.cfg_path, self.seed))

    def measure(self, seconds: int, tracer) -> None:
        """Whole rounds, at least MIN_ROUNDS, until the next round and the
        set-ups still to time would end past `seconds`; with a tracer,
        rounds alternate untraced and traced. Without one, the set-up is
        timed SETUP_PROBES times between rounds, spread over the run in
        proportion to the time elapsed: the host's speed drifts over tens
        of seconds, and set-up should see the drift the rounds see."""
        start = time.perf_counter()
        while True:
            if not tracer:
                share = (time.perf_counter() - start) / seconds
                self._time_setups(min(SETUP_PROBES, 1 + int(share * SETUP_PROBES)))
            r0 = time.perf_counter()
            if tracer and self.attempted % 2 == 1:
                with tracer:
                    self._round(tracer)
            else:
                self._round(None)
            last = time.perf_counter() - r0
            # Peak memory through the first round only: later rounds, with
            # set-up probes between them, leave the heap fragmented by chance
            # and the peak jumps by megabytes from run to run.
            if self.first_round_peak_kib is None:
                self.first_round_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            probes_left = 0.0
            if not tracer:
                probes_left = (SETUP_PROBES - len(self.setup_s)) * max(self.setup_s)
            if (self.attempted >= MIN_ROUNDS
                    and time.perf_counter() - start + last + probes_left > seconds):
                break
        if not tracer:
            self._time_setups(SETUP_PROBES)

    def end_to_end(self) -> dict:
        wall = statistics.median(self.round_s)
        config = self.workload.resolve_config(self.program, self.cfg_path, self.seed)
        return {
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cell_frames_per_s": {"value": self.workload.cell_frames(config) / wall,
                                  "unit": "cell-frames/s"},
            "peak_rss_mb": {"value": self.first_round_peak_kib / 1024.0, "unit": "MB"},
        }

    def per_layer(self) -> dict:
        metrics = {}
        for name, (kind, _) in LAYER_METRICS.items():
            values = [layer[name] for layer in self.layers]
            if UNITS[kind] == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    self.problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = {"value": value, "unit": UNITS[kind]}
        overhead = statistics.median(self.traced_round_s) - statistics.median(self.round_s)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics


def main(argv=None) -> int:
    cap = machine.cap_threads()
    args = parse_args(argv)
    import layers
    import workloads

    program = workloads.load_program()
    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        cfg_path = workload.write_config(workdir)
        outdir = os.path.join(workdir, "out")
        os.makedirs(outdir)
        tracer = layers.Tracer(args.seed) if args.trace else None
        run = Run(workload, program, cfg_path, args.seed, outdir)
        run.measure(args.seconds, tracer)
        if not run.round_s or (tracer and not run.traced_round_s):
            raise SystemExit("error: no round of the workload completed")
        metrics = run.per_layer() if tracer else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine.machine_info(cap),
        "round_s": run.round_s, "traced_round_s": run.traced_round_s,
        "setup_s": run.setup_s, "oracle_checks": run.oracle_checks,
        "absent": tracer.absent if tracer else [],
        "problems": run.problems[:20],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
