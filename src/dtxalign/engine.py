"""Synchronous multi-cell frame loop and Monte-Carlo experiment driver."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from dtxalign.channel import build_link_gains, compute_sinr, noise_power
from dtxalign.config import SimConfig
from dtxalign.geometry import build_hex_layout, drop_mobiles
from dtxalign.power import PowerBreakdown, price_cells
from dtxalign.scheduler import ScheduleMap, allocate_cells
from dtxalign.strategies import (SlotPriorities, rank_by_capacity,
                                 slot_sum_capacity)

# Relative slack when comparing realized to scheduled RB rates; absorbs
# float noise only, any real SINR drop dwarfs it.
DELIVERY_RTOL = 1e-9


@dataclass(frozen=True)
class FrameMetrics:
    """Per-frame record; per-mobile fields refer to the center cell.

    Its arrays are made read-only when it is built: a replayed frame
    shares them with the frame one period earlier.
    """

    frame: int
    cell_power_w: np.ndarray       # (C,) total power of every cell
    center_power: PowerBreakdown
    scheduled_bits: np.ndarray     # (K,)
    delivered_bits: np.ndarray     # (K,)
    retransmission: np.ndarray     # (K,) bool: delivered < target
    infeasible: np.ndarray         # (K,) bool: target not schedulable

    def __post_init__(self):
        for a in (self.cell_power_w, self.scheduled_bits, self.delivered_bits,
                  self.retransmission, self.infeasible):
            a.flags.writeable = False


@dataclass(frozen=True)
class AlgoTraceStep:
    """Memory-strategy internals of the center cell for one frame."""

    frame: int
    psi: tuple
    ranking: tuple
    priority: tuple


@dataclass(frozen=True)
class DropResult:
    frames: list
    algo_trace: list
    cycle: tuple | None = None     # (frame found, period) if replayed


@dataclass(frozen=True)
class RunSummary:
    strategy: str
    rate_mbps: float
    sum_rate_mbps: float
    mean_power_w: float
    power_trace_w: np.ndarray      # (frames,) mean center-cell power
    retransmission_prob: float
    outage_rate: float
    convergence_frame: int         # 1% band
    algo_trace: list               # AlgoTraceSteps of the first drop


def convergence_frame(trace: np.ndarray, rel_tol: float) -> int:
    """First frame from which the trace stays within rel_tol of its final
    value."""
    trace = np.asarray(trace, dtype=float)
    final = trace[-1]
    ok = np.abs(trace - final) <= rel_tol * abs(final)
    idx = len(trace) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    return idx


def retransmission_probability(frames: list) -> float:
    """Fraction of (frame, center-cell mobile) pairs flagged for
    retransmission; infeasible mobiles count as flagged."""
    if not frames:
        raise ValueError("no frames")
    flags = np.array([fm.retransmission | fm.infeasible for fm in frames])
    return float(flags.mean())


def run_drop(config: SimConfig, drop_seed) -> DropResult:
    """Simulate one Monte-Carlo drop.

    Every frame works on arrays over the cell axis and runs one body:
    1. the SINR of this frame's transmit pattern, every cell at once;
    2. the bits each RB carries at that SINR, log2(1 + s) scaled by the
       RB's bandwidth and duration: this frame's realized rates and the
       next frame's estimates;
    3. in frame 0 only, the schedules: every cell transmits on every RB
       (round-robin over mobiles) at the rates from step 2;
    4. each cell priced once, and the center cell's scheduled bits
       delivered where the realized rate carries them;
    5. unless this is the last frame, the slots ranked from step 2's
       capacities and the next frame's schedules filled from its bits.

    The schedules and the strategy state at the top of a frame after
    frame 0 decide every later frame.  That state is saved at frames 1,
    2, 4, 8, ... (Brent's checkpoints) and compared exactly with each
    frame's.  Once it equals the state saved `period` frames earlier, the
    remaining frames repeat those already simulated, and they are copied
    from them instead.  A strategy that draws from its RNGs never
    repeats, so its drop runs every frame.
    """
    seq = drop_seed if isinstance(drop_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(drop_seed)
    # spawn from a fresh copy: SeedSequence.spawn is stateful, and the same
    # drop seed must yield the same channels every time it is replayed
    seq = np.random.SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key)
    layout = build_hex_layout(config.tiers, config.isd_m)
    n_cells = layout.num_cells
    children = seq.spawn(2 + n_cells)
    rng_geo = np.random.default_rng(children[0])
    rng_chan = np.random.default_rng(children[1])
    strat_rngs = [np.random.default_rng(s) for s in children[2:]]

    drop = drop_mobiles(layout, config.mobiles_per_cell, rng_geo)
    gains = build_link_gains(layout, drop, rng_chan, config.subcarriers,
                             config.shadowing_std_db)
    n0 = noise_power(config.subcarrier_bw_hz, config.noise_temp_k)
    strategy = SlotPriorities(config, strat_rngs)
    k_mob = config.mobiles_per_cell
    targets = np.full(k_mob, config.target_bits_per_frame)
    center = layout.center_cell_index
    rate_scale = config.subcarrier_bw_hz * config.slot_duration_s

    active = np.ones((n_cells, config.subcarriers, config.slots), dtype=bool)
    # one (C, N, T, K) buffer holds the SINR and then, in place, the RB
    # bits: a second such array would raise the drop's peak memory
    bits = np.empty(active.shape + (k_mob,))
    frames = []
    algo_trace = []
    saved = None

    for f in range(config.frames):
        if f > 0:
            state = _drop_state(schedule, strategy)
            if saved is not None and _same_state(state, saved[1]):
                period = f - saved[0]
                for g in range(f, config.frames):
                    frames.append(replace(frames[g - period], frame=g))
                    if algo_trace and g + 1 < config.frames:
                        algo_trace.append(
                            replace(algo_trace[g - period], frame=g + 1))
                return DropResult(frames=frames, algo_trace=algo_trace,
                                  cycle=(f, period))
            if f & (f - 1) == 0:
                saved = (f, state)
        compute_sinr(gains, active, config.p_rb_w, n0, out=bits)
        b = slot_sum_capacity(bits, out=bits)        # bits: log2(1 + s)
        bits *= rate_scale
        if f == 0:
            # any all-nonzero assignment works; round-robin over mobiles
            n_grid, t_grid = np.meshgrid(np.arange(config.subcarriers),
                                         np.arange(config.slots),
                                         indexing="ij")
            pi = (n_grid + t_grid) % k_mob + 1
            schedule = ScheduleMap(
                pi=np.broadcast_to(pi, active.shape),
                bits=bits[:, n_grid, t_grid, pi - 1],
                infeasible=np.zeros((n_cells, k_mob), dtype=bool))

        powers = price_cells(schedule.pi, config)
        sched = schedule.cell(center)
        mask = sched.pi > 0
        owners = sched.pi[mask] - 1
        n_sel, t_sel = np.nonzero(mask)
        actual_bits = bits[center][n_sel, t_sel, owners]
        ok = actual_bits >= sched.bits[mask] * (1.0 - DELIVERY_RTOL)
        delivered = np.zeros(k_mob)
        np.add.at(delivered, owners[ok], sched.bits[mask][ok])
        scheduled = sched.scheduled_bits_per_mobile(k_mob)
        retx = delivered < targets * (1.0 - DELIVERY_RTOL)
        frames.append(FrameMetrics(
            frame=f, cell_power_w=powers.total_w,
            center_power=powers.cell(center),
            scheduled_bits=scheduled, delivered_bits=delivered,
            retransmission=retx, infeasible=sched.infeasible.copy()))

        if f + 1 < config.frames:
            priorities = strategy.step(b, active.any(axis=1))
            schedule = allocate_cells(priorities, bits, targets)
            active = schedule.pi > 0
            if config.strategy == "memory":
                algo_trace.append(AlgoTraceStep(
                    frame=f + 1,
                    psi=tuple(int(x) for x in strategy.psi[center]),
                    ranking=tuple(int(t) for t in rank_by_capacity(b[center])),
                    priority=tuple(int(t) for t in priorities[center])))
    return DropResult(frames=frames, algo_trace=algo_trace)


def _drop_state(schedule: ScheduleMap, strategy: SlotPriorities) -> tuple:
    """Everything the rest of a drop depends on at the top of a frame after
    frame 0, by reference: allocation and the strategy step build their
    arrays afresh.  The RNG states come first, so that a strategy which
    draws fails the comparison fast."""
    return ([rng.bit_generator.state for rng in strategy.rngs],
            schedule.pi, schedule.bits, schedule.infeasible,
            strategy.psi, strategy.prev)


def _same_state(a: tuple, b: tuple) -> bool:
    """Whether two _drop_state tuples are exactly equal."""
    return a[0] == b[0] and all(np.array_equal(x, y)
                                for x, y in zip(a[1:], b[1:]))


def _usable_cpus() -> int:
    """CPUs this process may run on (`taskset` narrows them); one where the
    platform has no CPU affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _drop_stats(task) -> tuple:
    """Simulate one (config, drop seed, keep algorithm trace) job of
    run_experiment and return only what its summary needs: the center
    cell's power trace, the steady-state retransmission and outage rates,
    and the algorithm trace if asked for, else None."""
    config, drop_seed, keep_algo_trace = task
    result = run_drop(config, drop_seed)
    steady = result.frames[config.warmup_frames:]
    return (np.array([fm.center_power.total_w for fm in result.frames]),
            retransmission_probability(steady),
            float(np.mean([fm.infeasible for fm in steady])),
            result.algo_trace if keep_algo_trace else None)


def _drop_stats_share(jobs: list) -> list:
    """_drop_stats of each job of one worker's share, in order."""
    return [_drop_stats(job) for job in jobs]


def _map_drops(jobs: list) -> list:
    """_drop_stats of every job, in job order, on one worker per usable CPU.

    Worker w runs the fixed share of jobs w, w + workers, w + 2 * workers,
    ...; interleaving mixes neighbouring jobs (same strategy and rate)
    over all workers.  A replayed drop stops early, so drops differ in
    cost: if each job went to whichever worker freed up first, the split,
    and with it a command's wall time, would change from run to run of
    the same drops.

    Workers are forked, not spawned: a spawned worker imports numpy and
    this package afresh, which takes about as long as a 7-cell run.  The
    only other threads the simulator starts are OpenBLAS's, which shuts
    its thread pool down at fork.  A single job or a single CPU runs
    in-process, and so does a daemonic process (itself a pool worker),
    which may not start children.
    """
    workers = min(_usable_cpus(), len(jobs))
    if workers > 1:
        # imported here: at module level it adds 13 ms and 0.7 MB to every
        # command's start-up, single-drop runs included
        import multiprocessing as mp
        if ("fork" in mp.get_all_start_methods()
                and not mp.current_process().daemon):
            with mp.get_context("fork").Pool(workers) as pool:
                shares = pool.map(_drop_stats_share,
                                  [jobs[w::workers] for w in range(workers)],
                                  chunksize=1)
            stats = [None] * len(jobs)
            for w, share in enumerate(shares):
                stats[w::workers] = share
            return stats
    return list(map(_drop_stats, jobs))


def run_experiment(config: SimConfig, rate_sweep, strategies=None) -> list:
    """Average center-cell metrics over config.drops for each strategy and
    target rate, strategy-major; strategies None means [config.strategy].

    Drop seeds derive from the master seed alone, so results are
    independent of evaluation order; the same drops (positions, channels)
    are reused across strategies and rates to reduce sweep noise.  The
    (strategy, rate, drop) jobs run on one worker process per usable CPU,
    and their results are averaged in drop order, so every summary is the
    same bit for bit on any number of CPUs.
    """
    drop_seeds = np.random.SeedSequence(config.seed).spawn(config.drops)
    names = [config.strategy] if strategies is None else strategies
    configs = [replace(config, strategy=name, target_rate_mbps=float(rate))
               for name in names for rate in rate_sweep]
    stats = _map_drops([(cfg, ds, d == 0) for cfg in configs
                        for d, ds in enumerate(drop_seeds)])
    summaries = []
    for i, cfg in enumerate(configs):
        traces, retx, outage, algo_traces = zip(
            *stats[i * config.drops:(i + 1) * config.drops])
        mean_trace = np.array(traces).mean(axis=0)
        steady_mean = float(mean_trace[config.warmup_frames:].mean())
        summaries.append(RunSummary(
            strategy=cfg.strategy,
            rate_mbps=cfg.target_rate_mbps,
            sum_rate_mbps=cfg.target_rate_mbps * config.mobiles_per_cell,
            mean_power_w=steady_mean,
            power_trace_w=mean_trace,
            retransmission_prob=float(np.mean(retx)),
            outage_rate=float(np.mean(outage)),
            convergence_frame=convergence_frame(mean_trace, 0.01),
            algo_trace=algo_traces[0],
        ))
    return summaries
