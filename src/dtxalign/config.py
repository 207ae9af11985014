"""Simulation configuration with LTE-like defaults."""

from __future__ import annotations

import hashlib
import json
import sys
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
        field, so no invalid config can be built; store numbers as plain
        int and float, so that 500 and 500.0 build one config."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise ValueError(f"{f.name} must be an integer")
                object.__setattr__(self, f.name, int(value))
            elif f.type == "float":
                # abs(x) <= max fails nan, inf and an int past float range
                if (isinstance(value, bool) or not isinstance(value, Real)
                        or not abs(value) <= sys.float_info.max):
                    raise ValueError(f"{f.name} must be a finite number")
                object.__setattr__(self, f.name, float(value))
        # distances scale with isd_m; within 1e+-100 m their squares, which
        # the norm takes, stay normal float64 (1e+-308) in any layout
        if not 1e-100 <= self.isd_m <= 1e100:
            raise ValueError("isd_m must lie in [1e-100, 1e100]")
        # int fields lie in [least, most]; each most is past any study and
        # stops a value before it overflows int64 or loops long in Python
        for name, least, most in (
                ("tiers", 0, 100),              # layout loops (2 tiers + 1)^2
                ("mobiles_per_cell", 1, 2**40),  # 8 TiB axis of float64s
                ("subcarriers", 1, 2**40),      # 8 TiB axis of float64s
                ("slots", 1, 2**40),            # 8 TiB axis of float64s
                ("frames", 1, 2**40),           # 8 TiB axis of float64s
                ("drops", 1, 10**5),            # seeds spawn first, 8 us each
                ("psi_ll", -2**62, self.psi_ul),  # int64 scores step by one
                ("psi_ul", self.psi_ll, 2**62),   # int64 scores step by one
                ("warmup_frames", 0, self.frames - 1)):
            if not least <= getattr(self, name) <= most:
                raise ValueError(f"{name} must lie in [{least}, {most}]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not 0.0 <= self.p_persist <= 1.0:
            raise ValueError("p_persist must lie in [0, 1]")
        if self.target_rate_mbps <= 0:
            raise ValueError("target_rate_mbps must be > 0")
        for name in ("p_sleep_w", "p_idle_w", "load_factor", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_rb_w", "bandwidth_hz", "noise_temp_k", "slot_duration_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        # gains 10^(-(PL + X)/10) overflow float64 (1e308) only for a draw
        # X < -3150 dB (PL >= 73 dB), 31 sigma below the mean at 100 dB
        if not 0 <= self.shadowing_std_db <= 100:
            raise ValueError("shadowing_std_db must lie in [0, 100]")

    def config_hash(self) -> str:
        """Short stable hash of the resolved configuration."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(SimConfig))
