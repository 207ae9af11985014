"""Slot prioritization strategies, stepped for all cells of a drop at once.

Each frame, every cell turns last frame's slot sum capacities into a
priority row: a permutation of the slot indices, highest transmission
priority first.  `SlotPriorities` holds the state of every cell as
(C, T) arrays (the memory scores, the previous rows) plus one RNG per
cell, and `step` maps the capacities b (C, T) and last frame's used
slots (C, T) to a (C, T) array of priority rows.  Rows never interact:
a C-cell step equals C one-cell steps fed the same RNG streams.  Slots
are 0-indexed internally.
"""

from __future__ import annotations

import numpy as np

from dtxalign.config import SimConfig


def slot_sum_capacity(sinr: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Per-slot hypothetical sum capacity: b[t] = sum_k sum_n log2(1 + s),
    from s[n, t, k] (T,) or from s[c, n, t, k] for every cell (C, T).
    log2(1 + s) is written into `out`, an array of the shape of s, when
    one is given.  Each slot is summed over k (pairwise), then over n in
    order, whatever the other slots: as caps.sum(axis=(-3, -1)) does for
    T > 1, while with T = 1 numpy would merge the n and k sums."""
    if np.any(sinr < 0):
        raise ValueError("SINR must be >= 0")
    caps = np.log2(np.add(1.0, sinr, out=out), out=out)
    return np.cumsum(caps.sum(axis=-1), axis=-2)[..., -1, :]


def rank_by_capacity(b: np.ndarray) -> np.ndarray:
    """Slots sorted by descending capacity along the last axis; ties go to
    the lower index."""
    return np.argsort(-np.asarray(b, dtype=float), axis=-1, kind="stable")


def memory_update(psi: np.ndarray, used: np.ndarray, b: np.ndarray,
                  psi_ul: int, psi_ll: int) -> tuple[np.ndarray, np.ndarray]:
    """One scoring round of the memory strategy, on (T,) or (C, T) rows.

    Slots used last frame gain a point (capped at psi_ul), unused slots
    other than the current capacity leader lose one (floored at psi_ll),
    and the leader gains one more point, also capped.  Priority is by
    descending score, then descending capacity, then lower index.
    Returns the new scores and the priority rows.
    """
    psi = np.asarray(psi)
    used = np.asarray(used, dtype=bool)
    b = np.asarray(b, dtype=float)
    leader = np.arange(b.shape[-1]) == np.argmax(b, axis=-1)[..., None]
    psi = psi + (used & (psi < psi_ul)) - (~used & ~leader & (psi > psi_ll))
    psi = np.where(leader, np.minimum(psi + 1, psi_ul), psi)
    return psi, np.lexsort((-b, -psi), axis=-1)


class SlotPriorities:
    """Strategy state of every cell of a drop, one row per cell.

    The memory scores start at the lower bound.  In a drop, the first
    step sees every slot as used, since frame 0 transmits on all of them.
    """

    def __init__(self, config: SimConfig, rngs: list):
        self.config = config
        self.rngs = rngs
        shape = (len(rngs), config.slots)
        self.psi = np.full(shape, config.psi_ll, dtype=int)
        self.prev: np.ndarray | None = None
        # scores stay in [psi_ll, psi_ul]: a type holding both holds them
        self._psi_type = np.promote_types(np.min_scalar_type(config.psi_ll),
                                          np.min_scalar_type(config.psi_ul))

    def key(self) -> bytes | None:
        """The scores as exact bytes, or None for random and p_persistent:
        they draw from their RNGs (nearly) every step, and a PCG64 stream
        never revisits a state, so their state never repeats."""
        if self.config.strategy in ("random", "p_persistent"):
            return None
        return self.psi.astype(self._psi_type).tobytes()

    def step(self, b: np.ndarray, used: np.ndarray) -> np.ndarray:
        """Priority rows (C, T) from slot capacities b (C, T) and the slots
        each cell used last frame (C, T)."""
        cfg = self.config
        n_cells, n_slots = len(self.rngs), cfg.slots
        if cfg.strategy == "sequential":
            return np.broadcast_to(np.arange(n_slots), (n_cells, n_slots))
        if cfg.strategy == "random":
            return np.array([rng.permutation(n_slots) for rng in self.rngs])
        if cfg.strategy == "p_persistent":
            fresh = rank_by_capacity(b)
            if self.prev is not None:
                # the whole row is adopted or kept; first frame adopts
                adopt = np.array([rng.random() < cfg.p_persist
                                  for rng in self.rngs])
                fresh = np.where(adopt[:, None], fresh, self.prev)
            self.prev = fresh
            return fresh
        # memory, the one strategy left: SimConfig admits no other
        self.psi, priorities = memory_update(self.psi, used, b,
                                             cfg.psi_ul, cfg.psi_ll)
        return priorities
