"""Sequential resource-block allocation against per-mobile rate targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleMap:
    """RB assignment for one frame, of one cell or of every cell.

    pi[..., n, t] holds 1-based mobile ids, 0 meaning unscheduled.
    bits[..., n, t] is the rate scheduled on that RB from last frame's SINR
    estimate.  A map of every cell has a leading cell axis on all three
    arrays, and `cell(c)` takes out one cell's map; the counts below
    describe a one-cell map.
    """

    pi: np.ndarray            # ([C,] N, T) int in {0..K}
    bits: np.ndarray          # ([C,] N, T) float
    infeasible: np.ndarray    # ([C,] K) bool, target could not be met

    def cell(self, c: int) -> ScheduleMap:
        return ScheduleMap(pi=self.pi[c], bits=self.bits[c],
                           infeasible=self.infeasible[c])

    @property
    def num_scheduled_rbs(self) -> int:
        return int((self.pi > 0).sum())

    def scheduled_bits_per_mobile(self, k: int) -> np.ndarray:
        out = np.zeros(k)
        mask = self.pi > 0
        np.add.at(out, self.pi[mask] - 1, self.bits[mask])
        return out


def rb_order(priority, n_subcarriers: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (n, t) consumption order of a priority row (T,), or of
    each row of (C, T): slots by priority, subcarriers ascending within a
    slot."""
    priority = np.asarray(priority, dtype=int)
    t_idx = np.repeat(priority, n_subcarriers, axis=-1)
    n_idx = np.broadcast_to(
        np.tile(np.arange(n_subcarriers), priority.shape[-1]), t_idx.shape)
    return n_idx, t_idx


def allocate_cells(priorities: np.ndarray, est_bits: np.ndarray,
                   targets: np.ndarray) -> ScheduleMap:
    """Greedy sequential fill of every cell's RB grid at once.

    priorities[c] is cell c's slot priority row and est_bits[c, n, t, k]
    the rate RB (n, t) of cell c would carry for its mobile k.  In each
    cell, mobiles are served in ascending index order; each consumes RBs
    in the priority order until its per-frame bit target is met, so a zero
    target takes none.  RBs whose estimated rate is zero for the current
    mobile are skipped and stay available.  Mobiles whose target cannot be
    met are marked infeasible (they keep everything they could grab).
    Cells never interact: row c equals allocate_from_bits of cell c alone.
    """
    est_bits = np.asarray(est_bits, dtype=float)
    n_cells, n_sub, n_slots, k_mob = est_bits.shape
    targets = np.asarray(targets, dtype=float)
    n_idx, t_idx = rb_order(priorities, n_sub)          # (C, N*T)
    grid_pos = n_idx * n_slots + t_idx                  # RB index in (N, T)
    # est_bits of mobile 0 for each cell's RBs in consumption order, as
    # flat indices; mobile k sits k entries further on
    first = (np.arange(n_cells)[:, None] * (n_sub * n_slots) + grid_pos) * k_mob
    flat = est_bits.reshape(-1)
    shape = grid_pos.shape
    owner = np.zeros(shape, dtype=int)         # in consumption order, 0 free
    owner_bits = np.zeros(shape)
    infeasible = np.empty((n_cells, k_mob), dtype=bool)
    # buffers reused for every mobile; prefix[:, j] holds the candidate
    # bits before RB j, prefix[:, -1] all of them
    bk = np.empty(shape)
    candidate_bits = np.empty(shape)
    candidate = np.empty(shape, dtype=bool)
    taken = np.empty(shape, dtype=bool)
    prefix = np.zeros((n_cells, shape[1] + 1))
    for k in range(k_mob):
        # mode "clip" writes to out unbuffered; the indices are in range
        np.take(flat[k:], first, out=bk, mode="clip")
        np.greater(bk, 0.0, out=candidate)
        candidate &= owner == 0
        candidate_bits.fill(0.0)
        np.copyto(candidate_bits, bk, where=candidate)
        np.cumsum(candidate_bits, axis=1, out=prefix[:, 1:])
        infeasible[:, k] = prefix[:, -1] < targets[k]
        # a candidate is taken while the bits before it fall short
        np.less(prefix[:, :-1], targets[k], out=taken)
        taken &= candidate
        np.copyto(owner, k + 1, where=taken)
        np.copyto(owner_bits, bk, where=taken)
    pi = np.empty(shape, dtype=int)
    np.put_along_axis(pi, grid_pos, owner, axis=1)
    bits = np.empty(shape)
    np.put_along_axis(bits, grid_pos, owner_bits, axis=1)
    grid = (n_cells, n_sub, n_slots)
    return ScheduleMap(pi=pi.reshape(grid), bits=bits.reshape(grid),
                       infeasible=infeasible)


def allocate_from_bits(priority: tuple, est_bits: np.ndarray,
                       targets: np.ndarray) -> ScheduleMap:
    """Greedy sequential fill of one cell's RB grid: allocate_cells with a
    single cell, priority (T,) and est_bits[n, t, k]."""
    return allocate_cells(np.asarray(priority)[None],
                          np.asarray(est_bits)[None], targets).cell(0)
