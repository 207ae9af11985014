"""Slot-level base-station power model."""

from __future__ import annotations

import numpy as np

from dtxalign.config import SimConfig


def price_cells(pi: np.ndarray, config: SimConfig):
    """Frame-average power in watts of every cell from its RB map pi
    (C, N, T), as a (C,) array, or of one cell from an (N, T) map, as a
    float64; priced with the config's p_sleep_w, p_idle_w, load_factor
    and p_rb_w.

    Sleep power is charged per DTX slot, idle power per active slot, and
    the transmit term scales with the frame-average count of scheduled
    RBs (the reading consistent with the 350 W full-load and 90 W
    all-DTX anchors).
    """
    scheduled = pi > 0
    n_slots = pi.shape[-1]
    t_s = n_slots - scheduled.any(axis=-2).sum(axis=-1)     # DTX slots
    n_tx_avg = scheduled.sum(axis=(-2, -1)) / n_slots
    sleep_part = config.p_sleep_w * t_s / n_slots
    tx_part = config.load_factor * config.p_rb_w * n_tx_avg
    idle_part = config.p_idle_w * (n_slots - t_s) / n_slots
    return sleep_part + tx_part + idle_part
