"""Checks on the simulator's outputs, written from the model description
(README.md of the repository) without reuse of the program's code or of
tests/.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

import numpy as np
import yaml

EPS = sys.float_info.epsilon


def full_load_power(config) -> float:
    """Frame power when every RB of every slot is scheduled: idle power
    plus the transmit term for N RBs per slot (350 W by default)."""
    return config.p_idle_w + config.load_factor * config.p_rb_w * config.subcarriers


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- SINR


def sinr_entry(gain: np.ndarray, k_per_cell: int, active: np.ndarray,
               p_rb: float, n0: float, c: int, n: int, t: int, k: int):
    """Loop-form SINR of mobile k of cell c on RB (n, t).

    The desired power comes from cell c whether or not c transmits on
    (n, t); interference is the sum over every other cell that does.
    Returns (sinr, relative tolerance): the program may sum the
    interference in another order, or as a total minus the serving share,
    so its rounding error scales with all power received on the RB.
    """
    m = c * k_per_cell + k
    interference = 0.0
    for src in range(gain.shape[0]):
        if src != c and active[src, n, t]:
            interference += p_rb * gain[src, m, n]
    desired = p_rb * gain[c, m, n]
    denom = n0 + interference
    received = denom + (desired if active[c, n, t] else 0.0)
    tol = (gain.shape[0] + 16) * EPS * received / denom
    return float(desired / denom), tol


def check_sinr(sinr: np.ndarray, gain: np.ndarray, k_per_cell: int,
               active: np.ndarray, p_rb: float, n0: float, rng,
               samples: int) -> list:
    """Compare `samples` random (cell, RB, mobile) entries of a
    compute_sinr result against the loop form."""
    n_cells, _, n_sub = gain.shape
    n_slots = active.shape[2]
    expected = (n_cells, n_sub, n_slots, k_per_cell)
    if sinr.shape != expected:
        return [f"compute_sinr shape {sinr.shape}, expected {expected}"]
    problems = []
    for _ in range(samples):
        c, n = rng.randrange(n_cells), rng.randrange(n_sub)
        t, k = rng.randrange(n_slots), rng.randrange(k_per_cell)
        ref, tol = sinr_entry(gain, k_per_cell, active, p_rb, n0, c, n, t, k)
        got = float(sinr[c, n, t, k])
        if not _close(got, ref, tol):
            problems.append(f"sinr[{c},{n},{t},{k}]={got!r}, loop form {ref!r}")
    return problems


# ---------------------------------------------------------- allocation


def greedy_fill(priority, est_bits: np.ndarray, targets) -> tuple:
    """Loop-form greedy RB fill.

    Mobiles in ascending index order each take free RBs in the order
    slots-by-priority, subcarriers ascending, skipping RBs whose estimated
    rate for that mobile is zero, until the bits taken reach the target.
    A mobile that runs out of RBs is infeasible and keeps what it took.
    Returns (pi, bits, infeasible) as nested lists; pi is 1-based, 0 free.
    """
    n_sub, n_slots, k_mob = est_bits.shape
    eb = est_bits.tolist()
    order = [(n, t) for t in priority for n in range(n_sub)]
    pi = [[0] * n_slots for _ in range(n_sub)]
    bits = [[0.0] * n_slots for _ in range(n_sub)]
    infeasible = [False] * k_mob
    for k in range(k_mob):
        target = float(targets[k])
        taken = 0.0
        met = False
        for n, t in order:
            if pi[n][t]:
                continue
            b = eb[n][t][k]
            if not b > 0:
                continue
            pi[n][t] = k + 1
            bits[n][t] = b
            taken += b
            if taken >= target:
                met = True
                break
        infeasible[k] = not met
    return pi, bits, infeasible


def is_permutation(seq, n: int, base: int = 0) -> bool:
    return sorted(int(x) for x in seq) == list(range(base, base + n))


def check_allocation(priority, est_bits: np.ndarray, targets, schedule) -> list:
    """Compare one allocate_from_bits result with the loop-form fill."""
    n_slots = est_bits.shape[1]
    if not is_permutation(priority, n_slots):
        return [f"priority {tuple(priority)} is not a permutation of 0..{n_slots - 1}"]
    pi, bits, infeasible = greedy_fill(priority, est_bits, targets)
    problems = []
    if schedule.pi.tolist() != pi:
        problems.append("allocation pi differs from the loop-form fill")
    if schedule.bits.tolist() != bits:
        problems.append("allocation bits differ from the loop-form fill")
    if [bool(x) for x in schedule.infeasible] != infeasible:
        problems.append("allocation infeasible flags differ from the loop-form fill")
    return problems


# ----------------------------------------------------- model properties


def check_frame0(cell_power_w, config) -> list:
    """Frame 0 transmits on every RB of every cell."""
    anchor = full_load_power(config)
    bad = [c for c, p in enumerate(cell_power_w) if not _close(float(p), anchor, 1e-12)]
    if bad:
        return [f"frame-0 power of cells {bad[:5]} is not {anchor} W"]
    return []


def check_summaries(summaries, config, strategies, rates) -> list:
    """Properties every run_experiment summary must have."""
    want = [(s, float(r)) for s in strategies for r in rates]
    got = [(s.strategy, s.rate_mbps) for s in summaries]
    if got != want:
        return [f"summaries for {got}, expected {want}"]
    anchor = full_load_power(config)
    lo, hi = config.p_sleep_w, anchor
    slack = 1e-9 * anchor
    problems = []
    for s in summaries:
        tag = f"{s.strategy}@{s.rate_mbps:g}"
        trace = np.asarray(s.power_trace_w, dtype=float)
        if trace.shape != (config.frames,):
            problems.append(f"{tag}: power trace shape {trace.shape}")
            continue
        if not _close(float(trace[0]), anchor, 1e-12):
            problems.append(f"{tag}: frame-0 power {trace[0]!r}, expected {anchor}")
        if trace.min() < lo - slack or trace.max() > hi + slack:
            problems.append(f"{tag}: power trace leaves [{lo}, {hi}] W")
        if not lo - slack <= s.mean_power_w <= hi + slack:
            problems.append(f"{tag}: mean power {s.mean_power_w} outside [{lo}, {hi}] W")
        if not 0.0 <= s.outage_rate <= s.retransmission_prob <= 1.0:
            problems.append(f"{tag}: need 0 <= outage {s.outage_rate} <= "
                            f"retransmission {s.retransmission_prob} <= 1")
        if not _close(s.sum_rate_mbps, s.rate_mbps * config.mobiles_per_cell, 1e-12):
            problems.append(f"{tag}: sum rate {s.sum_rate_mbps} != rate x K")
        steady = trace[config.warmup_frames:]
        if not _close(s.mean_power_w, math.fsum(steady) / len(steady), 1e-12):
            problems.append(f"{tag}: mean power {s.mean_power_w} is not the "
                            "mean of the trace after warm-up")
    return problems


# -------------------------------------------------------- output files


def config_hash(values: dict) -> str:
    """Hash of a resolved configuration, as the file headers state it:
    first 12 hex digits of SHA-256 over the key-sorted JSON."""
    blob = json.dumps(values, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def read_table(path: str) -> tuple:
    """(hash from the '# config_hash=' line, list of row dicts)."""
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        rows = list(csv.DictReader(fh))
    prefix = "# config_hash="
    return (first[len(prefix):] if first.startswith(prefix) else None), rows


def check_table_hash(path: str, expected: str, n_rows: int) -> list:
    name = os.path.basename(path)
    if not os.path.isfile(path):
        return [f"{name} missing"]
    got, rows = read_table(path)
    problems = []
    if got != expected:
        problems.append(f"{name}: config_hash {got}, recomputed {expected}")
    if len(rows) != n_rows:
        problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
    return problems


def check_run_outputs(outdir: str, strategy: str, rate: float) -> list:
    """Files of `dtx-sim run`: resolved_config.yaml, sweep.csv,
    trace.csv and, for the memory strategy, algorithm_trace.csv."""
    cfg_path = os.path.join(outdir, "resolved_config.yaml")
    if not os.path.isfile(cfg_path):
        return ["resolved_config.yaml missing"]
    with open(cfg_path) as fh:
        header = fh.readline().strip()
        cfg = yaml.safe_load(fh)
    chash = config_hash(cfg)
    problems = []
    if header != f"# config_hash={chash}":
        problems.append(f"resolved_config.yaml header {header!r}, recomputed {chash}")
    frames, warmup, k_mob = cfg["frames"], cfg["warmup_frames"], cfg["mobiles_per_cell"]
    anchor = cfg["p_idle_w"] + cfg["load_factor"] * cfg["p_rb_w"] * cfg["subcarriers"]
    lo = cfg["p_sleep_w"]
    if cfg["strategy"] != strategy or cfg["target_rate_mbps"] != rate:
        problems.append(f"resolved config runs {cfg['strategy']}@{cfg['target_rate_mbps']}")

    sweep_path = os.path.join(outdir, "sweep.csv")
    problems += check_table_hash(sweep_path, chash, 1)
    trace_path = os.path.join(outdir, "trace.csv")
    problems += check_table_hash(trace_path, chash, frames)
    if problems:
        return problems
    row = read_table(sweep_path)[1][0]
    mean_power = float(row["mean_power_w"])
    retx, outage = float(row["retransmission_prob"]), float(row["outage_rate"])
    if row["strategy"] != strategy or not _close(float(row["rate_mbps"]), rate, 1e-12):
        problems.append(f"sweep.csv row is {row['strategy']}@{row['rate_mbps']}")
    if not _close(float(row["sum_rate_mbps"]), rate * k_mob, 1e-5):
        problems.append(f"sweep.csv sum rate {row['sum_rate_mbps']} != rate x K")
    if not lo <= mean_power <= anchor:
        problems.append(f"sweep.csv mean power {mean_power} outside [{lo}, {anchor}] W")
    if not 0.0 <= outage <= retx <= 1.0:
        problems.append(f"sweep.csv needs 0 <= outage {outage} <= retransmission {retx} <= 1")
    trace_rows = read_table(trace_path)[1]
    power = [float(r["power_w"]) for r in trace_rows]
    if [int(r["frame"]) for r in trace_rows] != list(range(frames)):
        problems.append("trace.csv frames are not 0..frames-1")
    if not _close(power[0], anchor, 1e-5):
        problems.append(f"trace.csv frame-0 power {power[0]}, expected {anchor}")
    if min(power) < lo or max(power) > anchor:
        problems.append(f"trace.csv power leaves [{lo}, {anchor}] W")
    steady = power[warmup:]
    # both files round to 6 significant digits
    if not _close(mean_power, math.fsum(steady) / len(steady), 2e-5):
        problems.append("sweep.csv mean power is not the mean of trace.csv after warm-up")
    if strategy == "memory":
        problems += check_algo_trace(os.path.join(outdir, "algorithm_trace.csv"),
                                     chash, cfg)
    return problems


def check_algo_trace(path: str, chash: str, cfg: dict) -> list:
    """Scores within [psi_ll, psi_ul]; ranking and priority permutations
    of slots 1..T; priority in non-increasing score order."""
    n_slots, frames = cfg["slots"], cfg["frames"]
    problems = check_table_hash(path, chash, frames - 1)
    if problems:
        return problems
    for row in read_table(path)[1]:
        tag = f"algorithm_trace.csv frame {row['frame']}"
        psi = {}
        for item in row["psi"].split("|"):
            label, score = item.split(":")
            psi[int(label)] = int(score)
        ranking = [int(x) for x in row["ranking"].split("|")]
        priority = [int(x) for x in row["priority"].split("|")]
        if sorted(psi) != list(range(1, n_slots + 1)):
            problems.append(f"{tag}: scores for slots {sorted(psi)}")
            continue
        if not all(cfg["psi_ll"] <= v <= cfg["psi_ul"] for v in psi.values()):
            problems.append(f"{tag}: score outside [{cfg['psi_ll']}, {cfg['psi_ul']}]")
        if not is_permutation(ranking, n_slots, base=1):
            problems.append(f"{tag}: ranking {ranking} is not a permutation of 1..{n_slots}")
        if not is_permutation(priority, n_slots, base=1):
            problems.append(f"{tag}: priority {priority} is not a permutation of 1..{n_slots}")
            continue
        scores = [psi[t] for t in priority]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"{tag}: priority {priority} not by non-increasing score")
    return problems
