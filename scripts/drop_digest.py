#!/usr/bin/env python3
"""Print one SHA-256 over the full record of a fixed set of drops.

The digest covers every `FrameMetrics` field of every frame and the
`algo_trace` of each drop, for tiers 1 and 2, all four strategies,
target rates 0.5/1/2/3 Mbps and drop seeds 0 and 5 (64 drops).  Two
checkouts that print the same digest simulate these drops identically,
bit for bit.  The package is imported from the `src/` tree beside this
script, so the digest belongs to the checkout the script sits in:

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


def feed(h, value) -> None:
    """Hash a value by type and exact contents: arrays by dtype, shape and
    bytes, numpy scalars as the Python number they hold, floats through
    repr, which round-trips every bit."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        feed(h, value.item())
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            feed(h, item)
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def main() -> int:
    h = hashlib.sha256()
    for tiers in TIERS:
        for strategy in STRATEGIES:
            for rate in RATES_MBPS:
                config = SimConfig(tiers=tiers, strategy=strategy,
                                   target_rate_mbps=rate)
                for seed in DROP_SEEDS:
                    result = run_drop(config, seed)
                    feed(h, (tiers, strategy, rate, seed))
                    feed(h, result.frames)
                    feed(h, result.algo_trace)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
