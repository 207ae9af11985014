"""Simulation configuration with LTE-like defaults."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

STRATEGIES = ("sequential", "random", "p_persistent", "memory")


@dataclass(frozen=True)
class SimConfig:
    """Full parameter set for one simulation run.

    Defaults approximate a 10 MHz LTE downlink: 19-cell hexagonal grid,
    50 subcarrier groups x 10 subframes per frame, 0.8 W per resource
    block, DTX sleep power 90 W and idle power 200 W.
    """

    tiers: int = 2                     # interference tiers around center cell
    isd_m: float = 500.0               # intersite distance
    mobiles_per_cell: int = 10         # K
    subcarriers: int = 50              # N
    slots: int = 10                    # T subframes per frame
    target_rate_mbps: float = 2.0      # per-mobile rate target
    strategy: str = "memory"
    p_persist: float = 0.3             # adoption probability for p_persistent
    psi_ul: int = 5                    # memory score upper bound
    psi_ll: int = 0                    # memory score lower bound
    p_sleep_w: float = 90.0            # DTX slot power
    p_idle_w: float = 200.0            # active (non-DTX) slot baseline power
    load_factor: float = 3.75          # transmit-power-to-consumption slope
    p_rb_w: float = 0.8                # transmit power per resource block
    bandwidth_hz: float = 10e6
    noise_temp_k: float = 290.0
    shadowing_std_db: float = 8.0
    slot_duration_s: float = 1e-3
    frames: int = 50                   # frames per drop
    drops: int = 20                    # Monte-Carlo drops
    warmup_frames: int = 10            # discarded for steady-state statistics
    seed: int = 1

    @property
    def num_cells(self) -> int:
        return 1 + 3 * self.tiers * (self.tiers + 1)

    @property
    def subcarrier_bw_hz(self) -> float:
        return self.bandwidth_hz / self.subcarriers

    @property
    def frame_duration_s(self) -> float:
        return self.slot_duration_s * self.slots

    @property
    def target_bits_per_frame(self) -> float:
        return self.target_rate_mbps * 1e6 * self.frame_duration_s

    def __post_init__(self) -> None:
        """Raise ValueError on any mistyped, non-finite or out-of-range
        field, so no invalid config can be built."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer")
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, Real)
                                      or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number")
        if self.tiers < 0:
            raise ValueError("tiers must be >= 0")
        if self.isd_m <= 0:
            raise ValueError("isd_m must be > 0")
        for name in ("mobiles_per_cell", "subcarriers", "slots", "frames", "drops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not 0.0 <= self.p_persist <= 1.0:
            raise ValueError("p_persist must lie in [0, 1]")
        if self.psi_ll > self.psi_ul:
            raise ValueError("psi_ll must not exceed psi_ul")
        if self.target_rate_mbps <= 0:
            raise ValueError("target_rate_mbps must be > 0")
        for name in ("p_sleep_w", "p_idle_w", "load_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_rb_w", "bandwidth_hz", "noise_temp_k", "slot_duration_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.warmup_frames < 0 or self.warmup_frames >= self.frames:
            raise ValueError("warmup_frames must lie in [0, frames)")

    def config_hash(self) -> str:
        """Short stable hash of the resolved configuration."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(SimConfig))
