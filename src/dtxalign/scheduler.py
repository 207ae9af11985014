"""Sequential resource-block allocation against per-mobile rate targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleMap:
    """One cell's RB assignment for one frame, as allocate_from_bits
    returns it.

    pi[n, t] holds 1-based mobile ids, 0 meaning unscheduled.  bits[n, t]
    is the rate scheduled on that RB from the estimate the map was
    allocated against, as scheduled_rbs reads it; 0 where unscheduled.
    """

    pi: np.ndarray            # (N, T) int in {0..K}
    bits: np.ndarray          # (N, T) float
    infeasible: np.ndarray    # (K,) bool, target could not be met

    @property
    def num_scheduled_rbs(self) -> int:
        return int((self.pi > 0).sum())


def scheduled_rbs(pi: np.ndarray, bits: np.ndarray) -> tuple:
    """Per scheduled RB of maps pi (C, N, T), in RB order: its flat index in
    rates (C, N, T, K), bin c K + pi - 1 of its cell c, and its `bits`."""
    rb, k_mob = np.flatnonzero(pi > 0), bits.shape[-1]
    mobile = pi.take(rb) - 1
    at = rb * k_mob + mobile
    return at, rb // (pi.size // len(pi)) * k_mob + mobile, bits.take(at)


def allocate_cells(priorities: np.ndarray, est_bits: np.ndarray,
                   targets: np.ndarray) -> tuple:
    """Greedy sequential fill of every cell's RB grid at once.

    priorities[c] is cell c's slot priority row and est_bits[c, n, t, k]
    the rate RB (n, t) of cell c would carry for its mobile k.  In each
    cell, mobiles are served in ascending index order; each consumes RBs
    in the priority order until its per-frame bit target is met, so a zero
    target takes none.  RBs whose estimated rate is zero for the current
    mobile are skipped and stay available.  Mobiles whose target cannot be
    met are marked infeasible (they keep everything they could grab).
    Cells never interact: row c equals allocate_from_bits of cell c alone.
    Returns the map pi (C, N, T) of 1-based mobile ids, 0 unscheduled,
    and the flags infeasible (C, K), both for scheduled_rbs to read.
    """
    est_bits = np.asarray(est_bits, dtype=float)
    n_cells, n_sub, n_slots, k_mob = est_bits.shape
    targets = np.asarray(targets, dtype=float)
    # RB index in (N, T) of each cell's RBs in consumption order: slots
    # by priority, subcarriers ascending within a slot
    grid_pos = (np.asarray(priorities)[..., None]
                + n_slots * np.arange(n_sub)).reshape(n_cells, -1)
    # est_bits of mobile 0 for each cell's RBs in consumption order, as
    # flat indices; mobile k sits k entries further on
    first = (np.arange(n_cells)[:, None] * (n_sub * n_slots) + grid_pos) * k_mob
    flat = est_bits.reshape(-1)
    shape = grid_pos.shape
    # in consumption order: each RB's mobile, 0 while free
    owner = np.zeros(shape, dtype=int)
    free = np.ones(shape)               # 1.0 while free, 0.0 once taken
    infeasible = np.empty((n_cells, k_mob), dtype=bool)
    # buffers reused for every mobile; prefix[:, j] holds the candidate
    # bits before RB j, prefix[:, -1] all of them
    bk = np.empty(shape)
    taken = np.empty(shape, dtype=bool)
    prefix = np.zeros((n_cells, shape[1] + 1))
    for k in range(k_mob):
        # mode "clip" writes to out unbuffered; the indices are in range
        np.take(flat[k:], first, out=bk, mode="clip")
        # exact: bits are finite and >= 0, so x * 1 = x and x * 0 = 0
        bk *= free
        np.cumsum(bk, axis=1, out=prefix[:, 1:])
        infeasible[:, k] = prefix[:, -1] < targets[k]
        # a candidate (bk > 0) is taken while the bits before it fall short
        np.less(prefix[:, :-1], targets[k], out=taken)
        taken &= bk > 0.0
        np.copyto(owner, k + 1, where=taken)
        free -= taken
    pi = np.empty(shape, dtype=int)
    np.put_along_axis(pi, grid_pos, owner, axis=1)
    return pi.reshape(n_cells, n_sub, n_slots), infeasible


def allocate_from_bits(priority: tuple, est_bits: np.ndarray,
                       targets: np.ndarray) -> ScheduleMap:
    """Greedy sequential fill of one cell's RB grid: allocate_cells with a
    single cell, priority (T,) and est_bits[n, t, k]."""
    est_bits = np.asarray(est_bits, dtype=float)[None]
    pi, infeasible = allocate_cells(np.asarray(priority)[None], est_bits,
                                    targets)
    at, _, planned = scheduled_rbs(pi, est_bits)
    bits = np.zeros(pi.shape[1:])
    bits.flat[at // est_bits.shape[-1]] = planned
    return ScheduleMap(pi=pi[0], bits=bits, infeasible=infeasible[0])
