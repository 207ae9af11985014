#!/usr/bin/env python3
"""Self-test of the benchmark on a small network.

    python3 perfbench/selftest.py

Every oracle and output check must accept the program's own result and
reject each perturbed copy of it; the traced run must report a missing
function as an absent layer and leave the program as it found it; the
metric names must match BENCHMARK.json. Exits 1 on the first surprise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys
import tempfile

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL = dict(tiers=1, mobiles_per_cell=3, subcarriers=8, slots=4, frames=6,
             warmup_frames=2, drops=1, seed=5)
failures = []


def expect(name: str, problems: list, reject: bool) -> None:
    ok = bool(problems) == reject
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if reject else 'accepts'} {name}"
          + (f": {problems[0]}" if problems and ok else ""))
    if not ok:
        failures.append(name)


def sinr_cases(program, np) -> None:
    import oracles
    from dtxalign import channel, geometry

    cfg = program.SimConfig(**SMALL)
    rng = np.random.default_rng(3)
    layout = geometry.build_hex_layout(cfg.tiers, cfg.isd_m)
    drop = geometry.drop_mobiles(layout, cfg.mobiles_per_cell, rng)
    gains = channel.build_link_gains(layout, drop, rng, cfg.subcarriers)
    active = rng.random((layout.num_cells, cfg.subcarriers, cfg.slots)) < 0.6
    n0 = channel.noise_power(cfg.subcarrier_bw_hz, cfg.noise_temp_k)
    sinr = channel.compute_sinr(gains, active, cfg.p_rb_w, n0)

    def check(s, act=active):
        # enough samples to visit nearly every entry of the small grid
        return oracles.check_sinr(
            s, gains.gain, gains.mobiles_per_cell, act, cfg.p_rb_w, n0,
            random.Random(0), 4 * s.size)

    expect("compute_sinr result", check(sinr), reject=False)
    expect("SINR scaled by 1 + 1e-9", check(sinr * (1 + 1e-9)), reject=True)
    dense = channel.compute_sinr(gains, np.ones_like(active), cfg.p_rb_w, n0)
    expect("SINR computed with every cell active", check(dense), reject=True)
    # s' = desired / (n0 + interference + own share) = 1 / (1/s + active)
    own_counted = 1.0 / (1.0 / sinr + active[:, :, :, None])
    expect("SINR with the serving cell counted as interference", check(own_counted), reject=True)
    dtx_zero = sinr * active[:, :, :, None]
    expect("SINR zeroed on the serving cell's DTX slots", check(dtx_zero), reject=True)
    expect("SINR with cells in reverse order", check(sinr[::-1].copy()), reject=True)


def allocation_cases(program, np) -> None:
    import oracles
    from dtxalign import scheduler

    rng = np.random.default_rng(7)
    n_sub, n_slots, k_mob = 8, 4, 3
    est_bits = rng.exponential(300.0, size=(n_sub, n_slots, k_mob))
    est_bits[rng.random(est_bits.shape) < 0.2] = 0.0        # zero-rate RBs
    targets = np.array([1500.0, 2500.0, 20000.0])             # the last cannot be met
    priority = (2, 0, 3, 1)
    sched = scheduler.allocate_from_bits(priority, est_bits, targets)
    expect("allocate_from_bits result", oracles.check_allocation(priority, est_bits, targets, sched),
           reject=False)
    moved = sched.pi.copy()
    n, t = np.argwhere(moved == 1)[0]
    moved[n, t] = 2
    expect("an RB handed to the next mobile",
           oracles.check_allocation(priority, est_bits, targets, dataclasses.replace(sched, pi=moved)),
           reject=True)
    bits = sched.bits.copy()
    bits[n, t] *= 0.5
    expect("half the bits on one RB",
           oracles.check_allocation(priority, est_bits, targets, dataclasses.replace(sched, bits=bits)),
           reject=True)
    expect("infeasible flags inverted",
           oracles.check_allocation(priority, est_bits, targets,
                                    dataclasses.replace(sched, infeasible=~sched.infeasible)),
           reject=True)
    reordered = scheduler.allocate_from_bits(priority[::-1], est_bits, targets)
    expect("slots filled in reverse priority",
           oracles.check_allocation(priority, est_bits, targets, reordered), reject=True)
    no_skip = est_bits.copy()
    no_skip[no_skip == 0.0] = 1e-9
    taking_zeros = scheduler.allocate_from_bits(priority, no_skip, targets)
    expect("zero-rate RBs taken",
           oracles.check_allocation(priority, est_bits, targets, taking_zeros), reject=True)
    expect("a priority that is not a permutation",
           oracles.check_allocation((0, 0, 1, 2), est_bits, targets, sched), reject=True)


def property_cases(program, np) -> None:
    import oracles

    cfg = program.SimConfig(**SMALL)
    strategies, rates = ("sequential", "memory"), (0.5, 2.0)
    summaries = [s for name in strategies
                 for s in program.run_experiment(dataclasses.replace(cfg, strategy=name), rates)]
    expect("run_experiment summaries", oracles.check_summaries(summaries, cfg, strategies, rates),
           reject=False)

    def perturbed(name, **change):
        bad = list(summaries)
        bad[1] = dataclasses.replace(bad[1], **change)
        expect(name, oracles.check_summaries(bad, cfg, strategies, rates), reject=True)

    s = summaries[1]
    trace = s.power_trace_w.copy()
    trace[0] -= 1.0
    perturbed("frame-0 power below the full-load anchor", power_trace_w=trace)
    trace = s.power_trace_w.copy()
    trace[3] = 80.0
    perturbed("a trace power below the sleep floor", power_trace_w=trace)
    perturbed("mean power above the full-load anchor", mean_power_w=351.0)
    perturbed("retransmission below outage", retransmission_prob=s.outage_rate - 0.01)
    perturbed("sum rate not rate x K", sum_rate_mbps=s.sum_rate_mbps + 0.5)
    perturbed("mean power not the mean after warm-up", mean_power_w=s.mean_power_w * (1 + 1e-9))
    expect("a missing (strategy, rate) pair",
           oracles.check_summaries(summaries[:-1], cfg, strategies, rates), reject=True)

    result = program.run_drop(cfg, 11)
    powers = result.frames[0].cell_power_w
    expect("frame-0 power of every cell", oracles.check_frame0(powers, cfg), reject=False)
    bad = powers.copy()
    bad[-1] = 349.0
    expect("one cell below the anchor in frame 0", oracles.check_frame0(bad, cfg), reject=True)


def _edit(path: str, old: str, new: str) -> None:
    with open(path) as fh:
        text = fh.read()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path}")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def cli_cases(program, workdir: str) -> None:
    import oracles
    import yaml

    cfg_path = os.path.join(workdir, "small.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(SMALL, fh)
    good = os.path.join(workdir, "good")
    argv = ["run", "--config", cfg_path, "--strategy", "memory", "--rate-mbps", "1.0",
            "--out", good]
    with open(os.devnull, "w") as null:
        stdout, sys.stdout = sys.stdout, null
        try:
            status = program.cli.main(argv)
        finally:
            sys.stdout = stdout
    if status != 0:
        raise SystemExit(f"dtx-sim run exited with {status}")
    expect("dtx-sim run outputs", oracles.check_run_outputs(good, "memory", 1.0), reject=False)

    def perturbed(name, filename, edit):
        bad = os.path.join(workdir, "bad")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        edit(os.path.join(bad, filename))
        expect(name, oracles.check_run_outputs(bad, "memory", 1.0), reject=True)

    def rows(path):
        with open(path) as fh:
            return fh.read().splitlines()

    def rewrite(path, lines):
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    perturbed("a config value changed after hashing", "resolved_config.yaml",
              lambda p: _edit(p, "frames: 6", "frames: 7"))

    def bad_header(p):
        lines = rows(p)
        lines[0] = lines[0][:-1] + ("0" if lines[0][-1] != "0" else "1")
        rewrite(p, lines)

    perturbed("a table header with another config_hash", "sweep.csv", bad_header)

    def frame0(p):
        lines = rows(p)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",349"
        rewrite(p, lines)

    perturbed("trace.csv frame-0 power off the anchor", "trace.csv", frame0)

    def mean_off(p):
        lines = rows(p)
        fields = lines[2].split(",")
        fields[3] = f"{float(fields[3]) * 1.001:.6g}"
        lines[2] = ",".join(fields)
        rewrite(p, lines)

    perturbed("sweep.csv mean power not the trace mean", "sweep.csv", mean_off)

    def algo_edit(change):
        def edit(p):
            lines = rows(p)
            frame, psi, ranking, priority = lines[2].split(",")
            lines[2] = ",".join(change(frame, psi, ranking, priority))
            rewrite(p, lines)
        return edit

    perturbed("a priority that repeats a slot", "algorithm_trace.csv",
              algo_edit(lambda f, psi, r, p: (f, psi, r, "1|1|2|3")))
    perturbed("a ranking with slot 0", "algorithm_trace.csv",
              algo_edit(lambda f, psi, r, p: (f, psi, "0|1|2|3", p)))
    perturbed("a score above psi_ul", "algorithm_trace.csv",
              algo_edit(lambda f, psi, r, p: (f, "1:6|2:0|3:0|4:0", r, p)))
    perturbed("a priority against the scores", "algorithm_trace.csv",
              algo_edit(lambda f, psi, r, p: (f, "1:5|2:4|3:3|4:2", r, "4|3|2|1")))


def tracer_cases(program, workdir: str) -> None:
    import layers
    import workloads
    from dtxalign import channel, engine

    workload = workloads.Workload(name="small", config=SMALL,
                                  strategies=("memory",), rates=(1.0,), drops=2)
    cfg_path = workload.write_config(workdir)
    plain = workload.check(workload.execute(program, cfg_path, 5, workdir), workdir)[0]
    original = engine.compute_sinr

    class Missing(layers.Tracer):
        FUNCTIONS = layers.Tracer.FUNCTIONS + (("channel.gone", "dtxalign.channel", "gone"),)

    tracer = Missing(5)
    with tracer:
        wrapped = engine.compute_sinr is not original and channel.compute_sinr is engine.compute_sinr
        traced = workload.check(workload.execute(program, cfg_path, 5, workdir), workdir)[0]
    restored = engine.compute_sinr is original and channel.compute_sinr is original
    checks = [
        ("wrappers installed under engine's own names", wrapped),
        ("program restored after the traced round", restored),
        ("a missing function reported as absent", tracer.absent == ["dtxalign.channel.gone"]),
        ("traced and untraced outputs identical", traced == plain),
        ("oracle checks ran in the traced round",
         tracer.counts["oracle.sinr_calls_checked"] > 0 and not tracer.problems),
        ("run_drop calls counted", tracer.calls["engine.run_drop"] == 2),
    ]
    reshaped = layers.Tracer(5)
    with reshaped:
        reshaped._after_run_drop((None,), {}, object())
    checks.append(("a drop result without frames reported as absent",
                   reshaped.absent == ["dtxalign.engine.run_drop result frames[0].cell_power_w"]
                   and not reshaped.problems))
    for name, ok in checks:
        expect(name, [] if ok else [name], reject=False)


def metric_names_cases() -> None:
    import run

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: run.UNITS[kind] for name, (kind, _) in run.LAYER_METRICS.items()}
    printed["trace.overhead_s"] = "s"
    problems = [] if declared == printed else [f"BENCHMARK.json {declared} != run.py {printed}"]
    expect("per-layer names and units as in BENCHMARK.json", problems, reject=False)
    import workloads
    names = sorted(w["name"] for w in spec["workloads"])
    problems = [] if names == sorted(workloads.WORKLOADS) else [f"workloads {names}"]
    expect("workload names as in BENCHMARK.json", problems, reject=False)


def main() -> int:
    machine.cap_threads()
    import numpy as np

    import workloads

    program = workloads.load_program()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        sinr_cases(program, np)
        allocation_cases(program, np)
        property_cases(program, np)
        cli_cases(program, workdir)
        tracer_cases(program, workdir)
        metric_names_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
