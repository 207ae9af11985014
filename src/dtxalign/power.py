"""Slot-level base-station power model."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from dtxalign.config import SimConfig
from dtxalign.scheduler import ScheduleMap


@dataclass(frozen=True)
class PowerBreakdown:
    """Frame-average power of one cell, or of every cell when each field
    is a (C,) array; `cell(c)` takes out one cell's breakdown."""

    total_w: float
    sleep_part_w: float
    tx_part_w: float
    idle_part_w: float
    t_s: int              # DTX slots
    n_tx_avg: float       # scheduled RBs per slot, averaged over the frame

    def cell(self, c: int) -> PowerBreakdown:
        return PowerBreakdown(*(getattr(self, f.name)[c].item()
                                for f in fields(self)))


def price_cells(pi: np.ndarray, config: SimConfig) -> PowerBreakdown:
    """Frame-average power of every cell from its RB map pi (C, N, T),
    priced with the config's p_sleep_w, p_idle_w, load_factor and p_rb_w.

    Sleep power is charged per DTX slot, idle power per active slot, and
    the transmit term scales with the frame-average count of scheduled
    RBs (the reading consistent with the 350 W full-load and 90 W
    all-DTX anchors).
    """
    scheduled = pi > 0
    n_slots = pi.shape[-1]
    t_s = n_slots - scheduled.any(axis=-2).sum(axis=-1)
    n_tx_avg = scheduled.sum(axis=(-2, -1)) / n_slots
    sleep_part = config.p_sleep_w * t_s / n_slots
    tx_part = config.load_factor * config.p_rb_w * n_tx_avg
    idle_part = config.p_idle_w * (n_slots - t_s) / n_slots
    return PowerBreakdown(
        total_w=sleep_part + tx_part + idle_part,
        sleep_part_w=sleep_part,
        tx_part_w=tx_part,
        idle_part_w=idle_part,
        t_s=t_s,
        n_tx_avg=n_tx_avg,
    )


def total_power(schedule: ScheduleMap, config: SimConfig) -> PowerBreakdown:
    """Frame-average power of one cell: price_cells of its single row."""
    return price_cells(schedule.pi[None], config).cell(0)
