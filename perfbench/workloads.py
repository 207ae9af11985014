"""The benchmark's workloads, and loading the program from its source tree.

Each workload is a round of user-visible work, repeated within a run:
resolve the configuration from a YAML file, simulate, write the result
tables. Two rounds of one run use the same inputs, so they must give
byte-identical results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
from pathlib import Path

import yaml

import oracles

ROOT = Path(__file__).resolve().parent.parent
RATES = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
STRATEGIES = ("sequential", "random", "p_persistent", "memory")


def load_program():
    """Import dtxalign from src/ of the checkout this file sits in."""
    src = ROOT / "src"
    if not (src / "dtxalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtxalign sources under {src}")
    sys.path.insert(0, str(src))
    import dtxalign
    import dtxalign.cli
    import dtxalign.output

    if Path(dtxalign.__file__).resolve().parent != src / "dtxalign":
        raise SystemExit(f"error: dtxalign imported from {dtxalign.__file__}, not {src}")
    return dtxalign


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # contents of the YAML config file
    strategies: tuple
    rates: tuple
    drops: int
    via_cli: bool = False   # `dtx-sim run` through cli.main, else run_experiment

    def write_config(self, workdir: str) -> str:
        path = os.path.join(workdir, f"{self.name}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(self.config, fh)
        return path

    def resolve_config(self, program, cfg_path: str, seed: int):
        return program.cli.parse_config(cfg_path, {"drops": self.drops, "seed": seed})

    def cell_frames(self, config) -> int:
        """Simulated cell-frames in one round, frame 0 included; drops
        the program simulates beyond the requested ones are not counted."""
        return (config.num_cells * config.frames * self.drops
                * len(self.rates) * len(self.strategies))

    def execute(self, program, cfg_path: str, seed: int, outdir: str):
        """One round of the workload; returns what check() needs."""
        if self.via_cli:
            argv = ["run", "--config", cfg_path, "--strategy", self.strategies[0],
                    "--rate-mbps", str(self.rates[0]), "--drops", str(self.drops),
                    "--seed", str(seed), "--out", outdir]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                status = program.cli.main(argv)
            return status, printed.getvalue()
        config = self.resolve_config(program, cfg_path, seed)
        summaries = []
        for strategy in self.strategies:
            cfg = dataclasses.replace(config, strategy=strategy)
            summaries += program.run_experiment(cfg, list(self.rates))
        chash = config.config_hash()
        program.output.write_sweep(summaries, outdir, chash)
        program.output.write_trace(summaries, outdir, chash)
        return config, summaries

    def check(self, raw, outdir: str) -> tuple:
        """(fingerprint of the round's results, list of problems)."""
        if self.via_cli:
            status, printed = raw
            names = ["resolved_config.yaml", "sweep.csv", "trace.csv", "algorithm_trace.csv"]
            if status != 0:
                return None, [f"dtx-sim run exited with {status}"]
            problems = oracles.check_run_outputs(outdir, self.strategies[0], self.rates[0])
            if not printed.startswith(f"strategy={self.strategies[0]} "):
                problems.append(f"dtx-sim run printed {printed!r}")
            files = tuple(Path(outdir, n).read_bytes() if Path(outdir, n).is_file() else b""
                          for n in names)
            return (printed, files), problems
        config, summaries = raw
        problems = oracles.check_summaries(summaries, config, self.strategies, self.rates)
        chash = oracles.config_hash(dataclasses.asdict(config))
        problems += oracles.check_table_hash(os.path.join(outdir, "sweep.csv"),
                                             chash, len(summaries))
        problems += oracles.check_table_hash(os.path.join(outdir, "trace.csv"),
                                             chash, len(summaries) * config.frames)
        fingerprint = tuple(
            (s.strategy, s.rate_mbps, s.sum_rate_mbps, s.mean_power_w,
             s.retransmission_prob, s.outage_rate, s.convergence_frame,
             s.power_trace_w.tobytes()) for s in summaries)
        files = tuple(Path(outdir, n).read_bytes() for n in ("sweep.csv", "trace.csv"))
        return (fingerprint, files), problems


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(name="sweep-ref", config={},
             strategies=STRATEGIES, rates=RATES, drops=1),
    Workload(name="memory-37cell-long",
             config={"tiers": 3, "frames": 200, "strategy": "memory",
                     "target_rate_mbps": 1.0},
             strategies=("memory",), rates=(1.0,), drops=1),
    Workload(name="cli-run-7cell", config={"tiers": 1},
             strategies=("memory",), rates=(1.0,), drops=8, via_cli=True),
)}
