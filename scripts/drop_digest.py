#!/usr/bin/env python3
"""Print two SHA-256 digests over the record of a fixed set of drops.

Both cover every array field of each drop's `DropResult`, by name, for
tiers 1 and 2, all four strategies, target rates 0.5/1/2/3 Mbps and
drop seeds 0 and 5 (64 drops).  The first line sees only the center
cell, cell 0, of the arrays that once held that cell alone (the
per-mobile arrays and the slot rows), so it compares with checkouts
from before the record held every cell; the second sees every cell.
Two checkouts that print the same digests simulate these drops
identically, bit for bit.  How much
work the drops took goes to stderr: the drops replayed from a repeated
state (`DropResult.cycle`), the frames simulated, and the slots whose
SINR was computed (one slot of one `compute_sinr` call counts once, so
a frame that recomputes 3 of 10 slots counts 3).  A change that saves
or wastes work shows there while the digest stays put; the counts are
the same on every run.  The package is imported from the `src/` tree
beside this script, so the digest belongs to the checkout the script
sits in:

    python3 scripts/drop_digest.py
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dtxalign import engine  # noqa: E402
from dtxalign.config import STRATEGIES, SimConfig  # noqa: E402

TIERS = (1, 2)
RATES_MBPS = (0.5, 1.0, 2.0, 3.0)
DROP_SEEDS = (0, 5)
# DropResult fields with a cell axis, axis 1, that once held cell 0 alone
CENTER_CELL_ONCE = ("scheduled_bits", "delivered_bits", "retransmission",
                    "infeasible", "psi", "ranking", "priority")


def feed(h, drop_id: tuple, result, center_only: bool) -> None:
    """Hash a drop's id, through repr, and every array field of its result
    by name, dtype, shape and bytes; center_only hashes cell 0 alone of
    the CENTER_CELL_ONCE fields."""
    h.update(f"{drop_id!r};".encode())
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            if center_only and f.name in CENTER_CELL_ONCE:
                value = value[:, 0]
            h.update(f"{f.name}:{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())


def count_slot_sinrs() -> list:
    """Wrap the engine's compute_sinr so that each call adds its number of
    slots to the one entry of the returned list."""
    slots = [0]
    compute_sinr = engine.compute_sinr

    def counting(gains, active, *args, **kwargs):
        slots[0] += active.shape[2]
        return compute_sinr(gains, active, *args, **kwargs)

    engine.compute_sinr = counting
    return slots


def main() -> int:
    center, every = hashlib.sha256(), hashlib.sha256()
    slot_sinrs = count_slot_sinrs()
    drops = replayed = frames = all_frames = all_slots = 0
    for tiers in TIERS:
        for strategy in STRATEGIES:
            for rate in RATES_MBPS:
                config = SimConfig(tiers=tiers, strategy=strategy,
                                   target_rate_mbps=rate)
                for seed in DROP_SEEDS:
                    result = engine.run_drop(config, seed)
                    drop_id = (tiers, strategy, rate, seed)
                    feed(center, drop_id, result, center_only=True)
                    feed(every, drop_id, result, center_only=False)
                    drops += 1
                    replayed += result.cycle is not None
                    frames += (config.frames if result.cycle is None
                               else result.cycle[0])
                    all_frames += config.frames
                    all_slots += config.frames * config.slots
    print(center.hexdigest())
    print(every.hexdigest())
    print(f"{replayed} of {drops} drops replayed; {frames:,} of "
          f"{all_frames:,} frames simulated; {slot_sinrs[0]:,} of "
          f"{all_slots:,} slot SINRs computed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
