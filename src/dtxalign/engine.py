"""Synchronous multi-cell frame loop and Monte-Carlo experiment driver."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from dtxalign.channel import build_link_gains, compute_sinr, noise_power
from dtxalign.config import SimConfig
from dtxalign.geometry import build_hex_layout, drop_mobiles
from dtxalign.power import price_cells
from dtxalign.scheduler import allocate_cells, scheduled_rbs
from dtxalign.strategies import (SlotPriorities, rank_by_capacity,
                                 slot_sum_capacity)

# Relative slack when comparing realized to scheduled RB rates; absorbs
# float noise only, any real SINR drop dwarfs it.
DELIVERY_RTOL = 1e-9


@dataclass(frozen=True)
class DropResult:
    """The record of one drop, frame-major: row f of each array is frame f,
    and holds every cell.  Row f of `psi`, `ranking` and `priority` is the
    strategy step at the end of frame f, which sets up frame f + 1; `psi`
    stays at `psi_ll` for every strategy but memory."""

    cell_power_w: np.ndarray       # (F, C) total power of every cell
    scheduled_bits: np.ndarray     # (F, C, K)
    delivered_bits: np.ndarray     # (F, C, K)
    retransmission: np.ndarray     # (F, C, K) bool: delivered < target
    infeasible: np.ndarray         # (F, C, K) bool: target not schedulable
    psi: np.ndarray                # (F - 1, C, T) memory scores
    ranking: np.ndarray            # (F - 1, C, T) slots by capacity
    priority: np.ndarray           # (F - 1, C, T) slot priority rows
    cycle: tuple | None = None     # (first replayed frame, period)

    @property
    def frames(self) -> list:
        """Entry f holds frame f's row of `cell_power_w` as an attribute
        of that name: `perfbench` reads a drop's frame-0 powers as
        `frames[0].cell_power_w`.  New code indexes the arrays."""
        return [SimpleNamespace(cell_power_w=p) for p in self.cell_power_w]


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
    algo_trace: tuple              # psi, ranking, priority of drop 0


def convergence_frame(trace: np.ndarray, rel_tol: float) -> int:
    """First frame from which the trace stays within rel_tol of its final
    value."""
    trace = np.asarray(trace, dtype=float)
    ok = np.abs(trace - trace[-1]) <= rel_tol * abs(trace[-1])
    out = np.flatnonzero(~ok[:-1])      # out of band, before the last frame
    return int(out[-1]) + 1 if out.size else 0


def retransmission_probability(retransmission: np.ndarray,
                               infeasible: np.ndarray) -> float:
    """Fraction of (frame, mobile) pairs flagged for retransmission, from
    (F, K) or (F, C, K) flags; infeasible mobiles count as flagged."""
    flags = retransmission | infeasible
    if not flags.size:
        raise ValueError("no frames")
    return float(flags.mean())


class SlotRates:
    """The bits every RB carries, `bits` (C, N, T, K): log2(1 + SINR)
    scaled by the RB's bandwidth and duration, and each slot's capacity
    `b` (C, T), under a drop's transmit pattern.  A slot's SINR depends
    only on which cells transmit on its RBs, so `update` recomputes only
    the slots whose pattern changed, bit for bit as a full recompute."""

    def __init__(self, gains, config: SimConfig):
        n_cells, _, n_sub = gains.gain.shape
        self.bits = np.empty((n_cells, n_sub, config.slots,
                              gains.mobiles_per_cell))
        self.b = np.empty((n_cells, config.slots))
        self._gains, self._config, self._last = gains, config, None

    def update(self, active: np.ndarray) -> np.ndarray:
        """Recompute the slots t whose active[:, :, t] changed since the
        last update (all on the first) and return their indices."""
        cfg, n_slots = self._config, self.bits.shape[2]
        stale = np.arange(n_slots) if self._last is None else \
            np.flatnonzero((active != self._last).any(axis=(0, 1)))
        self._last = active.copy()
        if stale.size:
            full = stale.size == n_slots    # else a new array, copied back
            n0 = noise_power(cfg.subcarrier_bw_hz, cfg.noise_temp_k)
            fresh = compute_sinr(self._gains, active[:, :, stale], cfg.p_rb_w,
                                 n0, out=self.bits if full else None)
            self.b[:, stale] = slot_sum_capacity(fresh, out=fresh)
            fresh *= cfg.subcarrier_bw_hz * cfg.slot_duration_s
            if not full:
                self.bits[:, :, stale] = fresh
        return stale


def run_drop(config: SimConfig, drop_seed) -> DropResult:
    """Simulate one Monte-Carlo drop into the arrays of its DropResult.

    The loop starts from frame 0: every RB round-robin over mobiles, at
    that all-on pattern's rates.  Every frame runs one body on arrays of
    cells: pricing and delivery; unless it is the last frame, the strategy
    step, the next frame's map and planned bits, estimated from this
    frame's rates, then the next frame's rates.  Row f is frame f's.

    A frame's transmit pattern and the strategy state at its top decide
    every later frame.  Once they equal frame g's (_frame_key, kept for
    every frame), at frame f, frames f + 1 on repeat frames g + 1 on:
    the drop stops, `cycle` is (f + 1, f - g), and one periodic copy
    fills each array's remaining rows.  A strategy that draws from its
    RNGs never repeats, keeps no key and runs every frame.
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
    strategy = SlotPriorities(config, strat_rngs)
    k_mob = config.mobiles_per_cell
    targets = np.full(k_mob, config.target_bits_per_frame)

    n_frames, n_slots = config.frames, config.slots
    power = np.empty((n_frames, n_cells))
    scheduled, delivered, infeasible = (
        np.empty((n_frames, n_cells, k_mob), t) for t in (float, float, bool))
    psi, ranking, priority = (np.empty((n_frames - 1, n_cells, n_slots), int)
                              for _ in range(3))
    # any all-nonzero assignment works; round-robin over mobiles
    pi = np.indices((config.subcarriers, n_slots)).sum(axis=0) % k_mob + 1
    pi = np.broadcast_to(pi, (n_cells, config.subcarriers, n_slots))
    active = pi > 0
    rates = SlotRates(gains, config)
    rates.update(active)
    bits, b = rates.bits, rates.b
    at, bins, planned = scheduled_rbs(pi, bits)
    shortfall = np.zeros((n_cells, k_mob), dtype=bool)
    seen, cycle = {}, None

    for f in range(n_frames):
        power[f] = price_cells(pi, config)
        # every cell's bits per mobile: scheduled, and delivered where this
        # frame's rate still carries them
        kept = bits.take(at) >= planned * (1.0 - DELIVERY_RTOL)
        for out, w in ((scheduled, planned), (delivered, planned * kept)):
            out[f] = np.bincount(bins, w, n_cells * k_mob).reshape(n_cells, -1)
        infeasible[f] = shortfall

        if f + 1 == n_frames:
            break
        key = _frame_key(active, strategy)
        g = f if key is None else seen.setdefault(key, f)
        priorities = strategy.step(b, active.any(axis=1))
        psi[f] = strategy.psi
        ranking[f] = rank_by_capacity(b)
        priority[f] = priorities
        if g < f:
            cycle = (f + 1, f - g)
            break
        pi, shortfall = allocate_cells(priorities, bits, targets)
        # bits still holds this frame's rates: the next frame's estimates
        at, bins, planned = scheduled_rbs(pi, bits)
        active = pi > 0
        rates.update(active)

    # free the gains and rates before replay fills the record: RSS peaks lower
    del gains, rates, bits, b
    if cycle is not None:
        f, period = cycle
        for a in (power, scheduled, delivered, infeasible, psi, ranking,
                  priority):
            a[f:] = a[f - period + np.arange(len(a) - f) % period]
    return DropResult(
        cell_power_w=power, scheduled_bits=scheduled, delivered_bits=delivered,
        retransmission=delivered < targets * (1.0 - DELIVERY_RTOL),
        infeasible=infeasible, psi=psi, ranking=ranking, priority=priority,
        cycle=cycle)


def _frame_key(active: np.ndarray, strategy: SlotPriorities) -> tuple | None:
    """An exact, hashable copy of a transmit pattern and strategy state, or
    None where the state never repeats (SlotPriorities.key)."""
    state = strategy.key()
    return None if state is None else (np.packbits(active).tobytes(), state)


def _usable_cpus() -> int:
    """CPUs this process may run on (`taskset` narrows them); one where the
    platform has no CPU affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _drop_stats(task) -> tuple:
    """Simulate one (config, drop seed, keep algorithm trace) job of
    run_experiment and return what its summary needs of the center cell,
    cell 0, which this alone picks: its power trace, steady-state
    retransmission and outage rates, and its psi, ranking and priority
    rows if asked for (copies: a view would keep every cell's), else None."""
    config, drop_seed, keep_algo_trace = task
    result = run_drop(config, drop_seed)
    w = config.warmup_frames
    return (result.cell_power_w[:, 0],
            retransmission_probability(result.retransmission[w:, 0],
                                       result.infeasible[w:, 0]),
            float(result.infeasible[w:, 0].mean()),
            (result.psi[:, 0].copy(), result.ranking[:, 0].copy(),
             result.priority[:, 0].copy()) if keep_algo_trace else None)


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
