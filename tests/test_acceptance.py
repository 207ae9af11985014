"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy fixtures run the full-scale configuration (19 cells, 50
subcarriers, 10 slots, 10 mobiles per cell, 50 frames, 20 drops), so
this module takes several minutes.
"""

import sys

import conftest
import numpy as np
import pytest

from dtxalign.channel import build_link_gains, compute_sinr, noise_power
from dtxalign.cli import main as cli_main
from dtxalign.cli import trace_algorithm_steps
from dtxalign.config import STRATEGIES, SimConfig
from dtxalign.engine import run_experiment
from dtxalign.geometry import build_hex_layout, drop_mobiles
from dtxalign.power import price_cells
from dtxalign.scheduler import allocate_from_bits
from dtxalign.strategies import (SlotPriorities, memory_update,
                                 rank_by_capacity, slot_sum_capacity)
from test_scheduler import oracle_allocate, random_instance

RATES = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}"
    conftest.ACCEPTANCE_RECORDS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"{name} failed{tail}"


@pytest.fixture(scope="session")
def sweep():
    """(strategy, rate) -> RunSummary at full scale, common drops."""
    cfg = SimConfig(drops=20, frames=50, seed=1)
    return {(s.strategy, s.rate_mbps): s
            for s in run_experiment(cfg, RATES, STRATEGIES)}


def test_ac1_scoring_walkthrough_fidelity(capsys):
    psi, _, priority = trace_algorithm_steps(3)
    expected = [
        ((0, 3, 5), (2, 1, 0)),   # psi {a:0,b:3,c:5}, V=(c,b,a)
        ((0, 5, 5), (1, 2, 0)),   # psi {a:0,b:5,c:5}, V=(b,c,a)
        ((0, 5, 4), (1, 2, 0)),   # psi {a:0,b:5,c:4}, V=(b,c,a)
    ]
    ok = [(tuple(p), tuple(v))
          for p, v in zip(psi.tolist(), priority.tolist())] == expected
    rc = cli_main(["trace-algorithm", "--steps", "3"])
    lines = capsys.readouterr().out.splitlines()
    ok = ok and rc == 0 and lines == [
        "step 1: psi={a:0,b:3,c:5} V=(c,b,a)",
        "step 2: psi={a:0,b:5,c:5} V=(b,c,a)",
        "step 3: psi={a:0,b:5,c:4} V=(b,c,a)",
    ]
    report("ac1 scoring-walkthrough fidelity", ok)


def test_ac2_power_model_anchors():
    n, t = 50, 10
    params = SimConfig()
    full = price_cells(np.ones((n, t), dtype=int), params)
    asleep = price_cells(np.zeros((n, t), dtype=int), params)
    ok = full == pytest.approx(350.0, rel=1e-12) \
        and asleep == pytest.approx(90.0, rel=1e-12)
    report("ac2 power-model anchors", ok, f"full={full:g} W, all-DTX={asleep:g} W")


def test_ac3_convergence_speed(sweep):
    details = []
    ok = True
    for strat in STRATEGIES:
        for rate in (1.0, 2.0):
            trace = sweep[(strat, rate)].power_trace_w
            final = trace[-1]
            dev5 = float(np.abs(trace[6:] - final).max() / final)
            within1_by_end = sweep[(strat, rate)].convergence_frame <= 49
            good = dev5 <= 0.05 and within1_by_end
            ok = ok and good
            if not good:
                details.append(f"{strat}@{rate}: dev after frame 6 = {dev5:.0%}")
    report("ac3 convergence within 6 frames", ok, "; ".join(details))


def test_ac4_power_ordering_at_2mbps(sweep):
    p = {s: sweep[(s, 2.0)].mean_power_w for s in STRATEGIES}
    ordering = p["sequential"] > p["random"] > max(p["p_persistent"], p["memory"])
    savings = p["memory"] <= 0.75 * p["random"]
    detail = ", ".join(f"{s}={p[s]:.1f}W" for s in STRATEGIES) \
        + f"; memory/random={p['memory'] / p['random']:.2f}"
    report("ac4 power ordering at 2 Mbps", ordering and savings, detail)


def test_ac5_extreme_load_degeneracy(sweep):
    ok = True
    details = []
    for rate in (0.25, 3.0):
        pr = sweep[("random", rate)].mean_power_w
        pp = sweep[("p_persistent", rate)].mean_power_w
        rel = abs(pr - pp) / pp
        details.append(f"{rate} Mbps: {rel:.1%}")
        ok = ok and rel <= 0.10
    report("ac5 extreme-load degeneracy", ok, "; ".join(details))


def test_ac6_retransmission_ordering_at_2mbps(sweep):
    rnd = sweep[("random", 2.0)].retransmission_prob
    mem = sweep[("memory", 2.0)].retransmission_prob
    seq0 = all(sweep[("sequential", r)].retransmission_prob == 0.0
               for r in RATES if r <= 2.0)
    ok = rnd > mem and mem <= 0.8 * rnd and seq0
    seq2 = sweep[("sequential", 2.0)].retransmission_prob
    report("ac6 retransmission ordering at 2 Mbps", ok,
           f"random={rnd:.3f}, memory={mem:.3f}, sequential@2={seq2:.3f}")


def test_ac7_memory_retransmission_band(sweep):
    probs = {r: sweep[("memory", r)].retransmission_prob
             for r in (1.0, 1.5, 2.0, 2.5)}
    ok = all(0.05 <= v <= 0.35 for v in probs.values())
    report("ac7 memory retransmission band",
           ok, ", ".join(f"{r}:{v:.3f}" for r, v in probs.items()))


def test_ac8_property_suites():
    rng = np.random.default_rng(123)

    # permutation validity of every strategy output under fuzzing
    perm_ok = True
    for _ in range(2000):
        t = int(rng.integers(1, 12))
        b = rng.exponential(1.0, t)
        prev = rng.permutation(t)
        used = np.ones((1, t), dtype=bool)
        rand = SlotPriorities(SimConfig(strategy="random", slots=t), [rng])
        outs = [rand.step(b[None], used)[0], rank_by_capacity(b)]
        # a first step ranking prev, then a step that draws once
        pers = SlotPriorities(SimConfig(strategy="p_persistent", slots=t,
                                        p_persist=float(rng.random())), [rng])
        b_prev = np.empty(t)
        b_prev[prev] = np.arange(t, 0, -1)
        outs += [pers.step(b_prev[None], used)[0], pers.step(b[None], used)[0]]
        perm_ok = perm_ok and all(sorted(o) == list(range(t)) for o in outs)

    # score bounds after 1e5 random updates
    psi = np.array([0, 2, 5, 1, 3])
    psi_ok = True
    for _ in range(100_000):
        used = rng.random(5) < 0.5
        psi, v = memory_update(psi, used, rng.exponential(1.0, 5), 5, 0)
        psi_ok = psi_ok and np.all(psi >= 0) and np.all(psi <= 5) \
            and sorted(v) == [0, 1, 2, 3, 4]

    # scheduler vs. independent greedy oracle on 1e3 random instances
    sched_ok = True
    for _ in range(1000):
        priority, est, targets = random_instance(
            rng, n_sub=int(rng.integers(1, 9)),
            n_slots=int(rng.integers(1, 7)), k_mob=int(rng.integers(1, 5)))
        sched = allocate_from_bits(priority, est, targets)
        pi_ref, inf_ref = oracle_allocate(priority, est, targets)
        got = np.bincount(sched.pi.ravel(), sched.bits.ravel(),
                          len(targets) + 1)[1:]
        sched_ok = sched_ok and np.array_equal(sched.pi, pi_ref) \
            and np.array_equal(sched.infeasible, inf_ref) \
            and all(got[k] >= targets[k] - 1e-9
                    for k in range(len(targets)) if not sched.infeasible[k])

    # SINR monotone under interferer removal, 1e3 random patterns
    layout = build_hex_layout(1, 500.0)
    drop = drop_mobiles(layout, 3, np.random.default_rng(5))
    gains = build_link_gains(layout, drop, np.random.default_rng(6), 4, 8.0)
    n0 = noise_power(200e3, 290.0)
    mono_ok = True
    for _ in range(1000):
        act = rng.random((7, 4, 3)) < 0.7
        before = compute_sinr(gains, act, 0.8, n0)
        c = int(rng.integers(7))
        on = np.argwhere(act[c])
        if on.size == 0:
            continue
        n_off, t_off = on[int(rng.integers(len(on)))]
        act2 = act.copy()
        act2[c, n_off, t_off] = False
        after = compute_sinr(gains, act2, 0.8, n0)
        others = [cc for cc in range(7) if cc != c]
        mono_ok = mono_ok and bool(
            np.all(after[others] >= before[others] - 1e-15))

    # slot-capacity summation against an explicit loop
    s = rng.exponential(1.0, (6, 4, 3))
    ref = [sum(np.log2(1 + s[n, t, k]) for n in range(6) for k in range(3))
           for t in range(4)]
    eq3_ok = np.allclose(slot_sum_capacity(s), ref, rtol=1e-12)

    ok = perm_ok and psi_ok and sched_ok and mono_ok and eq3_ok
    report("ac8 property suites", ok,
           f"perm={perm_ok}, psi={psi_ok}, sched={sched_ok}, "
           f"sinr-mono={mono_ok}, slot-capacity={eq3_ok}")


def test_ac8_byte_identical_reruns(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("tiers: 1\nmobiles_per_cell: 3\nsubcarriers: 8\n"
                   "slots: 4\nframes: 10\nwarmup_frames: 3\ndrops: 3\n")
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(["sweep", "--config", str(cfg), "--rates", "0.1,0.3",
                       "--strategies", "all", "--out", str(out)])
        assert rc == 0
        blobs.append((out / "sweep.csv").read_bytes())
    capsys.readouterr()
    report("ac8 byte-identical reruns", blobs[0] == blobs[1])


def test_ac9_power_monotone_in_rate(sweep):
    ok = True
    details = []
    for strat in STRATEGIES:
        p = [sweep[(strat, r)].mean_power_w for r in RATES if r >= 0.5]
        inversions = [(a - b) / a for a, b in zip(p, p[1:]) if b < a]
        good = len(inversions) == 0 or (
            len(inversions) == 1 and inversions[0] <= 0.01)
        ok = ok and good
        if not good:
            details.append(f"{strat}: {np.round(p, 1)}")
    report("ac9 power monotone in target rate", ok, "; ".join(details))
