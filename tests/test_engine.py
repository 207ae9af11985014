import multiprocessing as mp
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtxalign import engine
from dtxalign.channel import LinkGainMap, compute_sinr, noise_power
from dtxalign.config import STRATEGIES, SimConfig
from dtxalign.engine import (DropResult, SlotRates, convergence_frame,
                             retransmission_probability, run_drop,
                             run_experiment)
from dtxalign.strategies import SlotPriorities

SMALL = dict(tiers=1, mobiles_per_cell=4, subcarriers=10, slots=5,
             frames=15, warmup_frames=5, drops=2)


def small_config(**kw):
    merged = {**SMALL, **kw}
    return SimConfig(**merged)


def _full_load_w(cfg):
    return cfg.p_idle_w + cfg.load_factor * cfg.p_rb_w * cfg.subcarriers


def test_frame_zero_full_power():
    cfg = small_config()
    result = run_drop(cfg, 0)
    np.testing.assert_allclose(result.cell_power_w[0], _full_load_w(cfg))
    assert not result.infeasible[0].any()


def test_frame_zero_full_power_at_reference_scale():
    cfg = SimConfig(frames=2, warmup_frames=1, drops=1)
    result = run_drop(cfg, 0)
    np.testing.assert_allclose(result.cell_power_w[0], 350.0)


def test_frame_zero_power_independent_of_strategy():
    cfg = small_config()
    for strat in ("sequential", "random", "p_persistent", "memory"):
        result = run_drop(small_config(strategy=strat), 3)
        np.testing.assert_allclose(result.cell_power_w[0],
                                   _full_load_w(cfg))


def _record_compute_sinr(monkeypatch):
    """Wrap the engine's compute_sinr; the returned list receives a copy of
    each call's transmit pattern and result as it is computed."""
    calls = []
    compute_sinr = engine.compute_sinr

    def recording(gains, active, *args, **kwargs):
        sinr = compute_sinr(gains, active, *args, **kwargs)
        calls.append((active.copy(), sinr.copy()))
        return sinr

    monkeypatch.setattr(engine, "compute_sinr", recording)
    return calls


def _record_patterns(monkeypatch):
    """Wrap SlotRates.update; the returned list receives a copy of the
    transmit pattern of each frame the engine simulates."""
    patterns = []
    update = engine.SlotRates.update

    def recording(self, active):
        patterns.append(active.copy())
        return update(self, active)

    monkeypatch.setattr(engine.SlotRates, "update", recording)
    return patterns


def test_sinr_only_for_changed_slots(monkeypatch):
    calls = _record_compute_sinr(monkeypatch)
    patterns = _record_patterns(monkeypatch)
    skipped = 0
    for strat in STRATEGIES:
        cfg = small_config(strategy=strat)
        calls.clear()
        patterns.clear()
        run_drop(cfg, 0)
        # frame 0 computes every slot, each later frame the slots where
        # some cell's use of some RB changed, and no call if none did
        stale = [np.arange(cfg.slots)] + [
            np.flatnonzero((now != before).any(axis=(0, 1)))
            for before, now in zip(patterns, patterns[1:])]
        want = [p[:, :, t] for p, t in zip(patterns, stale) if t.size]
        assert len(calls) == len(want), strat
        for (got, _), pattern in zip(calls, want):
            np.testing.assert_array_equal(got, pattern)
        skipped += len(patterns) - len(calls)
    assert skipped > 0


def _first_repeat(states: list):
    """(f, g) with g < f of the first state equal to an earlier one, found
    by comparing every pair of (pattern, psi, prev, RNG states), or None."""
    def same(a, b):
        return (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                and (a[2] is None) == (b[2] is None)
                and (a[2] is None or np.array_equal(a[2], b[2]))
                and a[3] == b[3])

    for f, state in enumerate(states):
        for g in range(f):
            if same(states[g], state):
                return f, g
    return None


def _assert_same_drop(got, want):
    """Every DropResult array equal, bit for bit, and the same cycle."""
    for f in fields(DropResult):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def test_replay_equals_full_simulation(monkeypatch):
    cases = [(small_config(strategy=strat, target_rate_mbps=rate), seed)
             for strat in STRATEGIES for rate in (0.5, 1.0)
             for seed in (0, 1, 2)]
    # a 37-cell drop whose state first repeats at frame 131, period 2:
    # state copies saved at frames 1, 2, 4, ..., 128 never catch it
    cases.append((SimConfig(tiers=3, frames=200, strategy="memory",
                            target_rate_mbps=1.0),
                  np.random.SeedSequence(112).spawn(1)[0]))
    replayed = [run_drop(cfg, seed) for cfg, seed in cases]
    states = []

    def brute_force(active, strategy):
        states.append((active.copy(), strategy.psi.copy(),
                       None if strategy.prev is None else strategy.prev.copy(),
                       [rng.bit_generator.state for rng in strategy.rngs]))
        return object()        # equal to no other key: no replay

    monkeypatch.setattr(engine, "_frame_key", brute_force)
    for (cfg, seed), got in zip(cases, replayed):
        states.clear()
        full = run_drop(cfg, seed)
        assert full.cycle is None
        repeat = _first_repeat(states)        # frame f repeats frame g
        assert got.cycle == (None if repeat is None
                             else (repeat[0] + 1, repeat[0] - repeat[1]))
        _assert_same_drop(replace(got, cycle=None), full)
    cycled = {cfg.strategy for (cfg, _), got in zip(cases, replayed)
              if got.cycle is not None}
    assert {"sequential", "memory"} <= cycled
    assert replayed[-1].cycle == (132, 2)


def test_replay_skips_the_sinr_of_repeated_frames(monkeypatch):
    patterns = _record_patterns(monkeypatch)
    cfg = small_config(strategy="memory", target_rate_mbps=0.5, frames=40)
    result = run_drop(cfg, 0)
    found, period = result.cycle
    assert found + period <= cfg.frames
    assert len(patterns) == found
    assert len(result.cell_power_w) == cfg.frames
    assert len(result.psi) == cfg.frames - 1


@pytest.mark.parametrize("strategy", ["random", "p_persistent"])
def test_drawing_strategies_run_every_frame(strategy, monkeypatch):
    patterns = _record_patterns(monkeypatch)
    cfg = small_config(strategy=strategy, target_rate_mbps=0.5, frames=40)
    assert run_drop(cfg, 0).cycle is None
    assert len(patterns) == cfg.frames


def test_frame_key_differs_in_each_component():
    def setup(strat):
        cfg = small_config(strategy=strat)
        b = np.arange(3 * cfg.slots, dtype=float).reshape(3, cfg.slots)
        active = np.ones((3, cfg.subcarriers, cfg.slots), dtype=bool)
        strategy = SlotPriorities(cfg, [np.random.default_rng(c)
                                        for c in range(3)])
        for _ in range(2):
            strategy.step(b, np.ones((3, cfg.slots), dtype=bool))
        return active, strategy

    def bump(array):
        array.flat[-1] += 1

    edits = {
        "active": lambda active, _: active.flat.__setitem__(-1, False),
        "psi": lambda _, strategy: bump(strategy.psi),
    }
    base = engine._frame_key(*setup("memory"))
    assert engine._frame_key(*setup("memory")) == base
    for name, edit in edits.items():
        active, strategy = setup("memory")
        assert engine._frame_key(active, strategy) == base, name
        edit(active, strategy)
        assert engine._frame_key(active, strategy) != base, name
    # states that draw never repeat: no key is kept
    for strat in ("random", "p_persistent"):
        assert engine._frame_key(*setup(strat)) is None, strat


@settings(max_examples=60, deadline=None)
@given(n_cells=st.sampled_from([1, 3, 7]), n_sub=st.integers(1, 50),
       n_slots=st.sampled_from([1, 2, 3, 10]),
       k_mob=st.sampled_from([1, 2, 9, 12]), seed=st.integers(0, 2**32 - 1))
def test_slot_reuse_equals_full_recompute(n_cells, n_sub, n_slots, k_mob,
                                          seed):
    rng = np.random.default_rng(seed)
    # subcarrier-major, as build_link_gains stores them
    buf = 10.0 ** rng.uniform(-16, -10, (n_sub, n_cells, n_cells * k_mob))
    gains = LinkGainMap(gain=buf.transpose(1, 2, 0), mobiles_per_cell=k_mob)
    cfg = small_config(subcarriers=n_sub, slots=n_slots,
                       mobiles_per_cell=k_mob)
    p_rb = cfg.p_rb_w
    n0 = noise_power(cfg.subcarrier_bw_hz, cfg.noise_temp_k)
    rate_scale = cfg.subcarrier_bw_hz * cfg.slot_duration_s
    first = rng.random((n_cells, n_sub, n_slots)) < 0.5
    some = first.copy()
    redrawn = rng.random(n_slots) < 0.5
    some[:, :, redrawn] = rng.random((n_cells, n_sub, redrawn.sum())) < 0.5
    every = some.copy()
    every[0, 0] ^= True                    # one RB of every slot flips
    rates = SlotRates(gains, cfg)
    last = None
    for pattern in (first, first.copy(), some, every):
        stale = rates.update(pattern)
        want_stale = np.arange(n_slots) if last is None else np.flatnonzero(
            (pattern != last).any(axis=(0, 1)))
        np.testing.assert_array_equal(stale, want_stale)
        last = pattern
        full = SlotRates(gains, cfg)
        full.update(pattern)
        assert rates.bits.tobytes() == full.bits.tobytes()
        assert rates.b.tobytes() == full.b.tobytes()
        sinr = compute_sinr(gains, pattern, p_rb, n0)
        caps = np.log2(1.0 + sinr)
        assert full.bits.tobytes() == (caps * rate_scale).tobytes()
        if n_slots > 1:
            # the order numpy sums both axes in at once (not with one slot)
            assert full.b.tobytes() == caps.sum(axis=(1, 3)).tobytes()


def test_frame_zero_bits_from_its_own_sinr(monkeypatch):
    calls = _record_compute_sinr(monkeypatch)
    cfg = small_config()
    scheduled = run_drop(cfg, 0).scheduled_bits[0, 0]
    s = calls[0][1][0]                      # frame 0, the center cell
    n, t = np.meshgrid(np.arange(cfg.subcarriers), np.arange(cfg.slots),
                       indexing="ij")
    owner = (n + t) % cfg.mobiles_per_cell          # round-robin, 0-based
    rate_scale = cfg.subcarrier_bw_hz * cfg.slot_duration_s
    for k in range(cfg.mobiles_per_cell):
        mine = owner == k
        want = rate_scale * np.log2(1.0 + s[n[mine], t[mine], k]).sum()
        assert scheduled[k] == pytest.approx(want, rel=1e-12)


def test_each_frame_schedules_at_the_last_frames_rates(monkeypatch):
    """Frame f >= 1 transmits the map allocate_cells made at the end of
    frame f - 1 from that frame's rates: in every cell, its scheduled bits
    are those rates summed per mobile over the cell's map, and its
    shortfall flags are the call's."""
    rates_after_update, calls = [], []
    update, allocate_cells = engine.SlotRates.update, engine.allocate_cells

    def recording_update(self, active):
        stale = update(self, active)
        rates_after_update.append(self.bits.copy())
        return stale

    def recording_allocate(priorities, est_bits, targets):
        pi, infeasible = allocate_cells(priorities, est_bits, targets)
        calls.append((pi.copy(), est_bits.copy(), infeasible.copy()))
        return pi, infeasible

    monkeypatch.setattr(engine.SlotRates, "update", recording_update)
    monkeypatch.setattr(engine, "allocate_cells", recording_allocate)
    for strat in STRATEGIES:
        cfg = small_config(strategy=strat)
        rates_after_update.clear()
        calls.clear()
        result = run_drop(cfg, 0)
        simulated = cfg.frames if result.cycle is None else result.cycle[0]
        assert len(rates_after_update) == simulated, strat
        assert len(calls) == simulated - 1, strat
        for f, (pi, est, shortfall) in enumerate(calls, start=1):
            assert est.tobytes() == rates_after_update[f - 1].tobytes()
            want = [[est[c][pi[c] == k + 1, k].sum()
                     for k in range(cfg.mobiles_per_cell)]
                    for c in range(cfg.num_cells)]
            np.testing.assert_allclose(result.scheduled_bits[f], want,
                                       rtol=1e-12, err_msg=f"{strat} {f}")
            np.testing.assert_array_equal(result.infeasible[f], shortfall)


def test_drop_determinism():
    cfg = small_config(strategy="memory")
    _assert_same_drop(run_drop(cfg, 42), run_drop(cfg, 42))


def test_drop_seed_changes_results():
    cfg = small_config()
    a = run_drop(cfg, 1)
    b = run_drop(cfg, 2)
    assert not np.allclose(a.cell_power_w[5], b.cell_power_w[5])


def test_sequential_low_rate_settles_and_delivers():
    # an easy load: sequential alignment should stop flagging mobiles once
    # schedules stabilize, and power should stay well below full load
    cfg = small_config(strategy="sequential", target_rate_mbps=0.1,
                       frames=20, warmup_frames=8)
    result = run_drop(cfg, 7)
    w = cfg.warmup_frames
    assert retransmission_probability(result.retransmission[w:],
                                      result.infeasible[w:]) == 0.0
    assert np.all(result.cell_power_w[w:, 0] < 350.0)
    assert np.all(result.delivered_bits[w:]
                  >= cfg.target_bits_per_frame - 1e-6)


def test_slot_rows_for_every_strategy():
    for strat in STRATEGIES:
        cfg = small_config(strategy=strat)
        result = run_drop(cfg, 0)
        shape = (cfg.frames - 1, cfg.num_cells, cfg.slots)
        assert result.psi.shape == result.ranking.shape == shape, strat
        assert result.priority.shape == shape, strat
        slots = np.broadcast_to(np.arange(cfg.slots), shape[::2])
        for c in range(cfg.num_cells):
            for rows in (result.priority[:, c], result.ranking[:, c]):
                np.testing.assert_array_equal(np.sort(rows), slots)
            psi = result.psi[:, c]
            assert np.all((cfg.psi_ll <= psi) & (psi <= cfg.psi_ul)), strat
            if strat != "memory":
                assert np.all(psi == cfg.psi_ll), strat


def test_memory_settles_without_neighbours():
    # a tiers-0 drop has no interferers, so its slot capacities are the
    # same every frame and the memory scores settle, after at most
    # 2 (psi_ul - psi_ll) + 1 steps, into a period-1 cycle
    for psi_ul, psi_ll in ((5, 0), (3, 0), (7, 2), (1, 0), (0, 0)):
        span = 2 * (psi_ul - psi_ll)
        for rate in (0.25, 1.0, 4.0, 20.0):
            cfg = small_config(tiers=0, strategy="memory", psi_ul=psi_ul,
                               psi_ll=psi_ll, target_rate_mbps=rate,
                               frames=span + 4, warmup_frames=0)
            for seed in range(3):
                result = run_drop(cfg, seed)
                case = (psi_ul, psi_ll, rate, seed)
                for rows in (result.psi, result.priority):
                    assert (rows[span:] == rows[span]).all(), case
                assert result.cycle[1] == 1, case


def test_scheduled_vs_delivered_accounting():
    for strat in STRATEGIES:
        cfg = small_config(strategy=strat)
        result = run_drop(cfg, 11)
        target = cfg.target_bits_per_frame
        shape = (cfg.frames, cfg.num_cells, cfg.mobiles_per_cell)
        for name in ("scheduled_bits", "delivered_bits", "retransmission",
                     "infeasible"):
            assert getattr(result, name).shape == shape, name
        easy = run_drop(small_config(strategy=strat, target_rate_mbps=0.5), 11)
        for c in range(cfg.num_cells):
            case = (strat, c)
            scheduled, delivered, retx = (
                a[:, c] for a in (result.scheduled_bits, result.delivered_bits,
                                  result.retransmission))
            assert np.all(delivered <= scheduled), case
            # a mobile with delivered >= target is never flagged
            assert not np.any((delivered >= target) & retx), case
            # frame 0 transmits at the rates its own all-on SINR carries,
            # so nothing fails; flags there only mark a full-power shortfall
            np.testing.assert_array_equal(delivered[0], scheduled[0])
            np.testing.assert_array_equal(retx[0], scheduled[0] < target)
            assert not easy.retransmission[0, c].any(), case
            # every frame's power lies between all-DTX and full load
            power = result.cell_power_w[:, c]
            assert np.all((cfg.p_sleep_w * (1.0 - 1e-12) <= power)
                          & (power <= _full_load_w(cfg) * (1.0 + 1e-12))), case


def test_convergence_frame():
    assert convergence_frame(np.array([350.0, 120.0, 100.0, 100.0, 100.0]), 0.01) == 2
    assert convergence_frame(np.array([100.0, 100.0]), 0.01) == 0
    assert convergence_frame(np.array([100.0, 200.0, 100.0]), 0.01) == 2
    assert convergence_frame(np.array([100.0, 100.5, 100.0]), 0.01) == 0


def test_retransmission_probability_counting():
    retx = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=bool)
    infeasible = np.array([[0, 0, 0, 0], [0, 0, 1, 0]], dtype=bool)
    # 3 flagged pairs out of 8 (overlap counted once per pair)
    assert retransmission_probability(retx, infeasible) == pytest.approx(3 / 8)
    both = np.array([[1, 0]], dtype=bool)
    assert retransmission_probability(both, both) == pytest.approx(0.5)
    none = np.zeros((0, 4), dtype=bool)
    with pytest.raises(ValueError):
        retransmission_probability(none, none)


def test_run_experiment_shapes_and_common_drops():
    cfg = small_config(strategy="sequential", drops=3)
    out = run_experiment(cfg, [0.1, 0.2])
    assert [s.rate_mbps for s in out] == [0.1, 0.2]
    for s in out:
        assert s.power_trace_w.shape == (cfg.frames,)
        assert s.power_trace_w[0] == pytest.approx(_full_load_w(cfg))
        assert s.sum_rate_mbps == pytest.approx(s.rate_mbps * cfg.mobiles_per_cell)
        assert 0.0 <= s.retransmission_prob <= 1.0
        assert 0 <= s.convergence_frame < cfg.frames
    # common random numbers: higher target never cheaper in steady state
    assert out[1].mean_power_w >= out[0].mean_power_w - 1e-9


def test_run_experiment_deterministic():
    cfg = small_config(strategy="p_persistent", seed=9)
    a = run_experiment(cfg, [0.5])[0]
    b = run_experiment(cfg, [0.5])[0]
    np.testing.assert_array_equal(a.power_trace_w, b.power_trace_w)
    assert a.retransmission_prob == b.retransmission_prob


def test_rate_order_does_not_change_results():
    cfg = small_config(strategy="random", seed=4)
    ab = run_experiment(cfg, [0.2, 0.6])
    ba = run_experiment(cfg, [0.6, 0.2])
    np.testing.assert_array_equal(ab[0].power_trace_w, ba[1].power_trace_w)
    np.testing.assert_array_equal(ab[1].power_trace_w, ba[0].power_trace_w)


def _assert_same_summaries(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.power_trace_w, b.power_trace_w)
        for name in ("strategy", "rate_mbps", "sum_rate_mbps", "mean_power_w",
                     "retransmission_prob", "outage_rate",
                     "convergence_frame"):
            assert getattr(a, name) == getattr(b, name), name
        for x, y in zip(a.algo_trace, b.algo_trace, strict=True):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pooled_run_experiment_equals_serial(strategy, monkeypatch):
    cfg = small_config(strategy=strategy, drops=3, seed=5)
    rates = [0.3, 0.8]
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    serial = run_experiment(cfg, rates)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    _assert_same_summaries(run_experiment(cfg, rates), serial)


def test_one_call_over_strategies_equals_per_strategy_calls(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    cfg = small_config(strategy="sequential", drops=2, seed=3)
    rates = [0.3, 0.8]
    names = ["random", "memory"]
    per_strategy = [s for name in names
                    for s in run_experiment(replace(cfg, strategy=name), rates)]
    _assert_same_summaries(run_experiment(cfg, rates, names), per_strategy)


def test_workers_run_fixed_interleaved_shares(monkeypatch):
    # job 0 is slow: a worker that took the next free job would leave
    # the other worker most of jobs 1-6
    def job_stats(job):
        time.sleep(0.3 if job == 0 else 0.02)
        return job, os.getpid()

    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_drop_stats", job_stats)
    got = engine._map_drops(list(range(7)))
    assert [job for job, _ in got] == list(range(7))
    pids = [pid for _, pid in got]
    assert os.getpid() not in pids
    assert len(set(pids[0::2])) == 1 and len(set(pids[1::2])) == 1


class DropFailure(RuntimeError):
    pass


def test_worker_exception_reaches_caller(monkeypatch):
    parent = os.getpid()

    def failing(config, drop_seed):
        if os.getpid() != parent:
            raise DropFailure("raised in a worker")
        return run_drop(config, drop_seed)

    monkeypatch.setattr(engine, "run_drop", failing)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    with pytest.raises(DropFailure, match="raised in a worker"):
        run_experiment(small_config(drops=2), [0.5])


def test_run_experiment_inside_a_pool_worker(monkeypatch):
    # a daemonic pool worker may not start a pool of its own
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    cfg = small_config(strategy="memory", drops=2)
    with mp.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(run_experiment, (cfg, [0.5])).get(timeout=120)
    _assert_same_summaries(got, run_experiment(cfg, [0.5]))


# scripts/drop_digest.py hashes every array of 64 drops' records, every
# cell included, and counts the work they took: a change that loses replay
# or slot reuse fails on the counts even where the digest holds.  The pins
# hold for Python 3.11.7 with numpy 2.4.6; another build may round
# differently.  A change to a pin needs an argument in CHANGES.md.
DROP_DIGEST_ALL_CELLS = \
    "620640b496bdedc8738340d0e962d355d9164386ed0e5f184b478e3755738566"
DROP_WORK = ("28 of 64 drops replayed; 2,100 of 3,200 frames simulated; "
             "13,069 of 32,000 slot SINRs computed")


def test_drop_digest_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "drop_digest.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == [DROP_DIGEST_ALL_CELLS]
    assert done.stderr.strip() == DROP_WORK
