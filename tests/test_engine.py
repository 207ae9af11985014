import multiprocessing as mp
import os
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from dtxalign import engine
from dtxalign.config import STRATEGIES, SimConfig
from dtxalign.engine import (FrameMetrics, convergence_frame,
                             retransmission_probability, run_drop,
                             run_experiment)
from dtxalign.geometry import build_hex_layout
from dtxalign.power import PowerBreakdown
from dtxalign.scheduler import ScheduleMap
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
    fm = result.frames[0]
    assert fm.frame == 0
    np.testing.assert_allclose(fm.cell_power_w, _full_load_w(cfg))
    assert fm.center_power.t_s == 0
    assert fm.center_power.n_tx_avg == pytest.approx(cfg.subcarriers)
    assert not fm.infeasible.any()


def test_frame_zero_full_power_at_reference_scale():
    cfg = SimConfig(frames=2, warmup_frames=1, drops=1)
    result = run_drop(cfg, 0)
    np.testing.assert_allclose(result.frames[0].cell_power_w, 350.0)


def test_frame_zero_power_independent_of_strategy():
    cfg = small_config()
    for strat in ("sequential", "random", "p_persistent", "memory"):
        result = run_drop(small_config(strategy=strat), 3)
        np.testing.assert_allclose(result.frames[0].cell_power_w,
                                   _full_load_w(cfg))


def _record_compute_sinr(monkeypatch):
    """Wrap the engine's compute_sinr; the returned list receives a copy of
    each result as it is computed."""
    results = []
    compute_sinr = engine.compute_sinr

    def recording(*args, **kwargs):
        sinr = compute_sinr(*args, **kwargs)
        results.append(sinr.copy())
        return sinr

    monkeypatch.setattr(engine, "compute_sinr", recording)
    return results


def test_one_sinr_per_frame(monkeypatch):
    results = _record_compute_sinr(monkeypatch)
    cfg = small_config()
    run_drop(cfg, 0)
    assert len(results) == cfg.frames


def _assert_same_drop(got, want):
    """Every FrameMetrics field and algo_trace step equal, bit for bit."""
    assert len(got.frames) == len(want.frames)
    for a, b in zip(got.frames, want.frames):
        for f in fields(FrameMetrics):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name
    assert got.algo_trace == want.algo_trace


def test_replay_equals_full_simulation(monkeypatch):
    cases = [(small_config(strategy=strat, target_rate_mbps=rate), seed)
             for strat in STRATEGIES for rate in (0.5, 1.0)
             for seed in (0, 1, 2)]
    # a 37-cell drop whose period (24 frames) spans several checkpoints
    cases.append((SimConfig(tiers=3, frames=200, strategy="memory",
                            target_rate_mbps=1.0), 6))
    replayed = [run_drop(cfg, seed) for cfg, seed in cases]
    monkeypatch.setattr(engine, "_same_state", lambda a, b: False)
    for (cfg, seed), got in zip(cases, replayed):
        full = run_drop(cfg, seed)
        assert full.cycle is None
        _assert_same_drop(got, full)
    cycled = {cfg.strategy for (cfg, _), got in zip(cases, replayed)
              if got.cycle is not None}
    assert {"sequential", "memory"} <= cycled
    assert replayed[-1].cycle[1] > 2


def test_replay_skips_the_sinr_of_repeated_frames(monkeypatch):
    results = _record_compute_sinr(monkeypatch)
    cfg = small_config(strategy="memory", target_rate_mbps=0.5, frames=40)
    result = run_drop(cfg, 0)
    found, period = result.cycle
    assert found + period <= cfg.frames
    assert len(results) == found
    assert len(result.frames) == cfg.frames
    assert len(result.algo_trace) == cfg.frames - 1


@pytest.mark.parametrize("strategy", ["random", "p_persistent"])
def test_drawing_strategies_run_every_frame(strategy, monkeypatch):
    results = _record_compute_sinr(monkeypatch)
    cfg = small_config(strategy=strategy, target_rate_mbps=0.5, frames=40)
    assert run_drop(cfg, 0).cycle is None
    assert len(results) == cfg.frames


def test_drop_state_differs_in_each_component():
    cfg = small_config(strategy="p_persistent")
    grid = (3, cfg.subcarriers, cfg.slots)
    b = np.arange(3 * cfg.slots, dtype=float).reshape(3, cfg.slots)

    def state(edit=None):
        sched = ScheduleMap(pi=np.ones(grid, dtype=int), bits=np.ones(grid),
                            infeasible=np.zeros((3, cfg.mobiles_per_cell),
                                                dtype=bool))
        strategy = SlotPriorities(cfg, [np.random.default_rng(c)
                                        for c in range(3)])
        for _ in range(2):
            strategy.step(b, np.ones((3, cfg.slots), dtype=bool))
        if edit is not None:
            edit(sched, strategy)
        return engine._drop_state(sched, strategy)

    def bump(array):
        array.flat[-1] += 1

    edits = {
        "pi": lambda sched, _: bump(sched.pi),
        "bits": lambda sched, _: bump(sched.bits),
        "infeasible": lambda sched, _: bump(sched.infeasible),
        "psi": lambda _, strategy: bump(strategy.psi),
        "prev": lambda _, strategy: setattr(strategy, "prev",
                                            strategy.prev[:, ::-1]),
        "rng": lambda _, strategy: strategy.rngs[-1].random(),
    }
    base = state()
    assert engine._same_state(state(), base)
    for name, edit in edits.items():
        assert not engine._same_state(state(edit), base), name
        assert not engine._same_state(base, state(edit)), name


def test_frame_arrays_read_only():
    fm = run_drop(small_config(), 0).frames[3]
    for name in ("cell_power_w", "scheduled_bits", "delivered_bits",
                 "retransmission", "infeasible"):
        with pytest.raises(ValueError):
            getattr(fm, name)[0] = 1


def test_frame_zero_bits_from_its_own_sinr(monkeypatch):
    results = _record_compute_sinr(monkeypatch)
    cfg = small_config()
    first = run_drop(cfg, 0).frames[0]
    center = build_hex_layout(cfg.tiers, cfg.isd_m).center_cell_index
    s = results[0][center]
    n, t = np.meshgrid(np.arange(cfg.subcarriers), np.arange(cfg.slots),
                       indexing="ij")
    owner = (n + t) % cfg.mobiles_per_cell          # round-robin, 0-based
    rate_scale = cfg.subcarrier_bw_hz * cfg.slot_duration_s
    for k in range(cfg.mobiles_per_cell):
        mine = owner == k
        want = rate_scale * np.log2(1.0 + s[n[mine], t[mine], k]).sum()
        assert first.scheduled_bits[k] == pytest.approx(want, rel=1e-12)


def test_drop_determinism():
    cfg = small_config(strategy="memory")
    a = run_drop(cfg, 42)
    b = run_drop(cfg, 42)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.cell_power_w, fb.cell_power_w)
        np.testing.assert_array_equal(fa.delivered_bits, fb.delivered_bits)
    for sa, sb in zip(a.algo_trace, b.algo_trace):
        assert sa == sb


def test_drop_seed_changes_results():
    cfg = small_config()
    a = run_drop(cfg, 1)
    b = run_drop(cfg, 2)
    assert not np.allclose(a.frames[5].cell_power_w, b.frames[5].cell_power_w)


def test_sequential_low_rate_settles_and_delivers():
    # an easy load: sequential alignment should stop flagging mobiles once
    # schedules stabilize, and power should stay well below full load
    cfg = small_config(strategy="sequential", target_rate_mbps=0.1,
                       frames=20, warmup_frames=8)
    result = run_drop(cfg, 7)
    steady = result.frames[cfg.warmup_frames:]
    assert retransmission_probability(steady) == 0.0
    for fm in steady:
        assert fm.cell_power_w[0] < 350.0
        assert np.all(fm.delivered_bits >= cfg.target_bits_per_frame - 1e-6)


def test_algo_trace_only_for_memory():
    assert run_drop(small_config(strategy="sequential"), 0).algo_trace == []
    trace = run_drop(small_config(strategy="memory"), 0).algo_trace
    cfg = small_config()
    assert len(trace) == cfg.frames - 1
    for step in trace:
        assert sorted(step.priority) == list(range(cfg.slots))
        assert sorted(step.ranking) == list(range(cfg.slots))
        assert all(0 <= s <= 5 for s in step.psi)


def test_scheduled_vs_delivered_accounting():
    layout = build_hex_layout(small_config().tiers, small_config().isd_m)
    center = layout.center_cell_index
    for strat in STRATEGIES:
        cfg = small_config(strategy=strat)
        result = run_drop(cfg, 11)
        for fm in result.frames:
            # each cell is priced once; the center record is that pricing
            assert fm.center_power.total_w == fm.cell_power_w[center]
            assert np.all(fm.delivered_bits <= fm.scheduled_bits)
            # a mobile with delivered >= target is never flagged
            met = fm.delivered_bits >= cfg.target_bits_per_frame
            assert not np.any(met & fm.retransmission)
        # frame 0 transmits at the rates its own all-on SINR carries, so
        # nothing fails; flags there only mark a full-power shortfall
        first = result.frames[0]
        np.testing.assert_array_equal(first.delivered_bits,
                                      first.scheduled_bits)
        np.testing.assert_array_equal(
            first.retransmission,
            first.scheduled_bits < cfg.target_bits_per_frame)
        easy = run_drop(small_config(strategy=strat, target_rate_mbps=0.5), 11)
        assert not easy.frames[0].retransmission.any()


def test_convergence_frame():
    assert convergence_frame(np.array([350.0, 120.0, 100.0, 100.0, 100.0]), 0.01) == 2
    assert convergence_frame(np.array([100.0, 100.0]), 0.01) == 0
    assert convergence_frame(np.array([100.0, 200.0, 100.0]), 0.01) == 2
    assert convergence_frame(np.array([100.0, 100.5, 100.0]), 0.01) == 0


def _metrics(retx, infeasible):
    k = len(retx)
    z = np.zeros(k)
    return FrameMetrics(frame=0, cell_power_w=np.zeros(1),
                        center_power=None, scheduled_bits=z,
                        delivered_bits=z,
                        retransmission=np.array(retx, dtype=bool),
                        infeasible=np.array(infeasible, dtype=bool))


def test_retransmission_probability_counting():
    frames = [_metrics([1, 0, 0, 0], [0, 0, 0, 0]),
              _metrics([0, 1, 0, 0], [0, 0, 1, 0])]
    # 3 flagged pairs out of 8 (overlap counted once per pair)
    assert retransmission_probability(frames) == pytest.approx(3 / 8)
    both = [_metrics([1, 0], [1, 0])]
    assert retransmission_probability(both) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        retransmission_probability([])


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
                     "convergence_frame", "algo_trace"):
            assert getattr(a, name) == getattr(b, name), name


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
