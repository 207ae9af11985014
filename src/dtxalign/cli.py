"""Command-line front end: run, sweep, trace-algorithm."""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np
import yaml

from dtxalign.config import CONFIG_FIELD_NAMES, STRATEGIES, SimConfig
from dtxalign.engine import run_experiment
from dtxalign.output import write_algo_trace, write_sweep, write_trace
from dtxalign.strategies import memory_update


# Every rate of a sweep costs config.drops whole drops per strategy, so a
# longer range is a mistyped step, not a sweep.
MAX_RATES = 1000


class CliError(Exception):
    pass


def parse_config(path: str | None, overrides: dict) -> SimConfig:
    """Resolve config: flag overrides > file values > built-in defaults."""
    values = {}
    if path is not None:
        if not os.path.isfile(path):
            raise CliError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                loaded = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())     # one line
            raise CliError(f"unreadable config file {path}: {detail}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise CliError("config file must be a key-value mapping")
        unknown = set(loaded) - set(CONFIG_FIELD_NAMES)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown, key=str)}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return SimConfig(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def echo_config(config: SimConfig, outdir: str) -> None:
    with open(os.path.join(outdir, "resolved_config.yaml"), "w") as fh:
        fh.write(f"# config_hash={config.config_hash()}\n")
        yaml.safe_dump(dataclasses.asdict(config), fh, sort_keys=True)


def _parse_rate(text: str) -> float:
    try:
        rate = float(text)
    except ValueError:
        raise CliError(f"rate is not a number: {text!r}") from None
    if not math.isfinite(rate):
        raise CliError(f"rate must be finite: {text!r}")
    return rate


def parse_rates(spec: str) -> list:
    """Accept 'start:stop:step' (inclusive, at most MAX_RATES rates) or a
    comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError("rate range must be start:stop:step")
        start, stop, step = (_parse_rate(p) for p in parts)
        if step <= 0 or stop < start:
            raise CliError("invalid rate range")
        # whole steps to the stop, a stop rounded a hair short included
        n = (stop - start) / step + 1e-9   # inf when the span overflows
        if not n < MAX_RATES:
            raise CliError(f"rate range gives more than {MAX_RATES} rates")
        rates = [start + i * step for i in range(int(n) + 1)]
    else:
        rates = [_parse_rate(p) for p in spec.split(",") if p]
    if not rates or any(r <= 0 for r in rates):
        raise CliError("rates must be positive")
    if len(set(rates)) < len(rates):     # a repeat would run its drops twice
        raise CliError("rates must not repeat")
    return rates


def parse_strategies(spec: str) -> list:
    if spec == "all":
        return list(STRATEGIES)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise CliError("no strategies given")
    for name in names:
        if name not in STRATEGIES:
            raise CliError(f"unknown strategy: {name}")
    if len(set(names)) < len(names):     # a repeat would run its drops twice
        raise CliError("strategies must not repeat")
    return names


def _prepare_outdir(outdir: str) -> None:
    try:
        os.makedirs(outdir, exist_ok=True)
        probe = os.path.join(outdir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise CliError(f"output directory not writable: {exc}") from exc


def _simulate(args, overrides: dict, rates: str | None = None,
              strategies: str | None = None) -> tuple:
    """Resolve the config, parse the rate and strategy specs (None means
    the config's own), echo the config into args.out, run the drops and
    write their sweep.csv and trace.csv there.  Returns the config hash
    and the summaries."""
    config = parse_config(args.config, {
        **overrides, "drops": args.drops, "frames": args.frames,
        "seed": args.seed,
    })
    rates = [config.target_rate_mbps] if rates is None else parse_rates(rates)
    if strategies is not None:
        strategies = parse_strategies(strategies)
    _prepare_outdir(args.out)
    echo_config(config, args.out)
    chash = config.config_hash()
    summaries = run_experiment(config, rates, strategies)
    write_sweep(summaries, args.out, chash)
    write_trace(summaries, args.out, chash)
    return chash, summaries


def cmd_run(args) -> None:
    chash, summaries = _simulate(args, {
        "strategy": args.strategy, "target_rate_mbps": args.rate_mbps})
    s = summaries[0]
    if s.strategy == "memory":
        write_algo_trace(s.algo_trace, args.out, chash)
    print(f"strategy={s.strategy} rate={s.rate_mbps:g} Mbps "
          f"mean_power={s.mean_power_w:.6g} W retx={s.retransmission_prob:.6g}")


def cmd_sweep(args) -> None:
    _, summaries = _simulate(args, {}, args.rates, args.strategies)
    print(f"wrote {len(summaries)} rows to sweep.csv and their power "
          f"traces to trace.csv in {args.out}")


# Three-slot scoring walkthrough: slots a, b, c; each step gives the slots
# used last frame and the capacity order observed this frame.
DEMO_LABELS = ["a", "b", "c"]
DEMO_PSI0 = {"a": 0, "b": 2, "c": 5}
DEMO_PSI_UL, DEMO_PSI_LL = 5, 0
DEMO_STEPS = [
    ({"c"}, ("b", "c", "a")),
    ({"b", "c"}, ("b", "c", "a")),
    ({"b"}, ("b", "a", "c")),
]


def trace_algorithm_steps(n_steps: int) -> tuple:
    """Replay the built-in three-slot scoring walkthrough.

    Steps beyond the scripted three repeat the last input, showing the
    scores settling.  Returns the (n_steps, 3) psi, ranking and priority
    arrays, row i being step i + 1, with 0-based slot indices (a=0, b=1,
    c=2).
    """
    if n_steps < 1:
        raise CliError("steps must be >= 1")
    index = {lab: i for i, lab in enumerate(DEMO_LABELS)}
    n_slots = len(DEMO_LABELS)
    psi = np.array([DEMO_PSI0[lab] for lab in DEMO_LABELS], dtype=int)
    trace = np.empty((3, n_steps, n_slots), dtype=int)
    for i in range(n_steps):
        used_labels, rank_labels = DEMO_STEPS[min(i, len(DEMO_STEPS) - 1)]
        used = np.isin(DEMO_LABELS, list(used_labels))
        ranking = [index[lab] for lab in rank_labels]
        b = np.empty(n_slots)       # synthetic capacities in that ranking
        b[ranking] = np.arange(n_slots, 0, -1)
        psi, priority = memory_update(psi, used, b, DEMO_PSI_UL, DEMO_PSI_LL)
        trace[:, i] = psi, ranking, priority
    return tuple(trace)


def cmd_trace_algorithm(args) -> None:
    trace = trace_algorithm_steps(args.steps)
    psi, _, priority = trace
    for i, (p, v) in enumerate(zip(psi, priority)):
        psi_str = ",".join(f"{lab}:{x}" for lab, x in zip(DEMO_LABELS, p))
        v_str = ",".join(DEMO_LABELS[t] for t in v)
        print(f"step {i + 1}: psi={{{psi_str}}} V=({v_str})")
    if args.out is not None:
        _prepare_outdir(args.out)
        write_algo_trace(trace, args.out, "demo", labels=DEMO_LABELS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtx-sim",
        description="Multi-cell DTX time-slot alignment simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML key-value config file")
        p.add_argument("--drops", type=int, default=None)
        p.add_argument("--frames", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="results", help="output directory")

    p_run = sub.add_parser("run", help="single strategy at a single rate")
    common(p_run)
    p_run.add_argument("--strategy", choices=STRATEGIES, default=None)
    p_run.add_argument("--rate-mbps", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rate sweep: sweep.csv and trace.csv")
    common(p_sweep)
    p_sweep.add_argument("--rates", default="0.5:3.0:0.25",
                         help="start:stop:step or comma list, in Mbps")
    p_sweep.add_argument("--strategies", default="all")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tr = sub.add_parser("trace-algorithm",
                          help="replay the three-slot scoring walkthrough")
    p_tr.add_argument("--steps", type=int, default=3)
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(func=cmd_trace_algorithm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's one-line message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
