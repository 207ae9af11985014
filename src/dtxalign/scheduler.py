"""Sequential resource-block allocation against per-mobile rate targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleMap:
    """One cell's RB assignment for one frame.

    pi[n, t] holds 1-based mobile ids, 0 meaning unscheduled.  bits[n, t]
    is the rate scheduled on that RB from last frame's SINR estimate.
    """

    pi: np.ndarray            # (N, T) int in {0..K}
    bits: np.ndarray          # (N, T) float
    infeasible: np.ndarray    # (K,) bool, target could not be met

    @property
    def slot_used(self) -> np.ndarray:
        """(T,) bool: any RB assigned in this slot."""
        return (self.pi > 0).any(axis=0)

    @property
    def t_tx(self) -> int:
        return int(self.slot_used.sum())

    @property
    def t_s(self) -> int:
        return self.pi.shape[1] - self.t_tx

    @property
    def num_scheduled_rbs(self) -> int:
        return int((self.pi > 0).sum())

    def scheduled_bits_per_mobile(self, k: int) -> np.ndarray:
        out = np.zeros(k)
        mask = self.pi > 0
        np.add.at(out, self.pi[mask] - 1, self.bits[mask])
        return out


def rb_bits(s, subcarrier_bw_hz: float, slot_duration_s: float):
    """Shannon bits carried by one RB at linear SINR s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR must be >= 0")
    out = subcarrier_bw_hz * slot_duration_s * np.log2(1.0 + s)
    return out if out.ndim else float(out)


def rb_order(priority: tuple, n_subcarriers: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (n, t) consumption order: slots by priority, subcarriers
    ascending within a slot."""
    t_idx = np.repeat(np.asarray(priority, dtype=int), n_subcarriers)
    n_idx = np.tile(np.arange(n_subcarriers), len(priority))
    return n_idx, t_idx


def allocate_from_bits(priority: tuple, est_bits: np.ndarray,
                       targets: np.ndarray) -> ScheduleMap:
    """Greedy sequential fill of the RB grid.

    est_bits[n, t, k] is the rate RB (n, t) would carry for mobile k,
    e.g. rb_bits of the estimated SINR.  Mobiles are served in ascending
    index order; each consumes RBs in the priority order until its
    per-frame bit target is met.  RBs whose estimated rate is zero for
    the current mobile are skipped and stay available.  Mobiles whose
    target cannot be met are marked infeasible (they keep everything
    they could grab).
    """
    n_sub, n_slots, k_mob = est_bits.shape
    targets = np.asarray(targets, dtype=float)
    n_idx, t_idx = rb_order(priority, n_sub)
    bits_ordered = est_bits[n_idx, t_idx, :]            # (N*T, K)
    available = np.ones(n_sub * n_slots, dtype=bool)
    pi = np.zeros((n_sub, n_slots), dtype=int)
    bits = np.zeros((n_sub, n_slots))
    infeasible = np.zeros(k_mob, dtype=bool)
    for k in range(k_mob):
        bk = bits_ordered[:, k]
        idxs = np.nonzero(available & (bk > 0))[0]
        if idxs.size == 0:
            infeasible[k] = True
            continue
        cumulative = np.cumsum(bk[idxs])
        if cumulative[-1] >= targets[k]:
            stop = int(np.searchsorted(cumulative, targets[k]))
            taken = idxs[:stop + 1]
        else:
            infeasible[k] = True
            taken = idxs
        available[taken] = False
        pi[n_idx[taken], t_idx[taken]] = k + 1
        bits[n_idx[taken], t_idx[taken]] = bk[taken]
    return ScheduleMap(pi=pi, bits=bits, infeasible=infeasible)
