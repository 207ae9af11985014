#!/usr/bin/env python3
"""Print one SHA-256 over the full record of a fixed set of drops.

The digest covers every array field of each drop's `DropResult`, by
name, for tiers 1 and 2, all four strategies, target rates 0.5/1/2/3
Mbps and drop seeds 0 and 5 (64 drops).  Two checkouts that print the
same digest simulate these drops identically, bit for bit.  The number
of drops replayed from a repeated state (`DropResult.cycle`) goes to
stderr, so a change that disables the replay shows there while the
digest stays put.  The package is imported from the `src/` tree beside
this script, so the digest belongs to the checkout the script sits in:

    python3 scripts/drop_digest.py
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dtxalign.config import STRATEGIES, SimConfig  # noqa: E402
from dtxalign.engine import run_drop  # noqa: E402

TIERS = (1, 2)
RATES_MBPS = (0.5, 1.0, 2.0, 3.0)
DROP_SEEDS = (0, 5)


def feed(h, drop_id: tuple, result) -> None:
    """Hash a drop's id, through repr, and every array field of its result
    by name, dtype, shape and bytes."""
    h.update(f"{drop_id!r};".encode())
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            h.update(f"{f.name}:{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())


def main() -> int:
    h = hashlib.sha256()
    drops = replayed = 0
    for tiers in TIERS:
        for strategy in STRATEGIES:
            for rate in RATES_MBPS:
                config = SimConfig(tiers=tiers, strategy=strategy,
                                   target_rate_mbps=rate)
                for seed in DROP_SEEDS:
                    result = run_drop(config, seed)
                    feed(h, (tiers, strategy, rate, seed), result)
                    drops += 1
                    replayed += result.cycle is not None
    print(h.hexdigest())
    print(f"{replayed} of {drops} drops replayed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
