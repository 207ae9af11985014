"""Traced run: timers and counters wrapped around each layer's public
functions, from outside the program.

A wrapper replaces a function under every name the dtxalign package
binds it to (the defining module, and modules such as `engine` and `cli`
that import it directly), so calls made through any of those names are
timed. A function that no longer exists is reported as an absent layer.

Spans nest: a span's self time is its duration minus the spans it
encloses. Counting and oracle checks run in hooks after the timed call;
their time is taken off the clock of every open span and of the round.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import time
from collections import defaultdict

import oracles

# Sampling of oracle checks in a traced round.
SINR_CHECK_SHARE = 0.25     # share of compute_sinr calls checked
SINR_CHECK_ENTRIES = 16     # (cell, RB, mobile) entries per checked call
ALLOC_CHECK_SHARE = 0.02    # share of allocate_from_bits calls checked


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for one traced round at a time.

    Use as a context manager around a round: entering installs the
    wrappers and starts a fresh record, leaving restores the program.
    """

    # (span, defining module, function)
    FUNCTIONS = (
        ("geometry.drop_mobiles", "dtxalign.geometry", "drop_mobiles"),
        ("channel.build_link_gains", "dtxalign.channel", "build_link_gains"),
        ("channel.compute_sinr", "dtxalign.channel", "compute_sinr"),
        ("scheduler.allocate_from_bits", "dtxalign.scheduler", "allocate_from_bits"),
        ("power.total_power", "dtxalign.power", "total_power"),
        ("engine.run_drop", "dtxalign.engine", "run_drop"),
        ("output.write", "dtxalign.output", "write_sweep"),
        ("output.write", "dtxalign.output", "write_trace"),
        ("output.write", "dtxalign.output", "write_algo_trace"),
        ("cli.parse_config", "dtxalign.cli", "parse_config"),
    )
    # (span, module, method) wrapped on every class of the module defining it
    METHODS = (
        ("strategies.next_priority", "dtxalign.strategies", "next_priority"),
        ("strategies.record_used", "dtxalign.strategies", "record_used"),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.absent = []
        self._patches = []
        self._hooks = {
            "compute_sinr": self._after_compute_sinr,
            "allocate_from_bits": self._after_allocate,
            "next_priority": self._after_next_priority,
            "run_drop": self._after_run_drop,
            "write_sweep": self._after_write,
            "write_trace": self._after_write,
            "write_algo_trace": self._after_write,
        }

    # ------------------------------------------------------------ record

    def _reset(self) -> None:
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.problems = []
        self.paused = 0.0
        self._stack = []
        # same seed, same sampled calls in every traced round
        self.rng = random.Random(self.seed)

    def now(self) -> float:
        """Clock that stops while hooks run."""
        return time.perf_counter() - self.paused

    def _wrap(self, span: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            t0 = tracer.now()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                child = stack.pop()
                duration = tracer.now() - t0
                if stack:
                    stack[-1] += duration
                tracer.time[span] += duration
                tracer.self_time[span] += duration - child
                tracer.calls[span] += 1
            if hook is not None:
                p0 = time.perf_counter()
                hook(args, kwargs, result)
                tracer.paused += time.perf_counter() - p0
            return result

        return wrapper

    # ------------------------------------------------------------- hooks

    def _after_compute_sinr(self, args, kwargs, sinr) -> None:
        gains = _arg(args, kwargs, 0, "gains")
        active = _arg(args, kwargs, 1, "active")
        n_cells, n_mobiles, n_sub = gains.gain.shape
        self.counts["channel.interference_macs"] += n_cells * n_mobiles * n_sub * active.shape[2]
        if self.rng.random() < SINR_CHECK_SHARE:
            self.counts["oracle.sinr_calls_checked"] += 1
            self.problems += oracles.check_sinr(
                sinr, gains.gain, gains.mobiles_per_cell, active,
                _arg(args, kwargs, 2, "p_rb"), _arg(args, kwargs, 3, "n0"),
                self.rng, SINR_CHECK_ENTRIES)

    def _after_allocate(self, args, kwargs, schedule) -> None:
        self.counts["scheduler.rbs_scheduled"] += schedule.num_scheduled_rbs
        if self.rng.random() < ALLOC_CHECK_SHARE:
            self.counts["oracle.allocations_checked"] += 1
            self.problems += oracles.check_allocation(
                _arg(args, kwargs, 0, "priority"), _arg(args, kwargs, 1, "est_bits"),
                _arg(args, kwargs, 2, "targets"), schedule)

    def _after_next_priority(self, args, kwargs, priority) -> None:
        n_slots = len(_arg(args, kwargs, 1, "b"))
        if not oracles.is_permutation(priority, n_slots):
            self.problems.append(f"next_priority returned {priority}")

    def _after_run_drop(self, args, kwargs, result) -> None:
        try:
            powers = result.frames[0].cell_power_w
        except (AttributeError, IndexError, TypeError):
            # a reshaped drop result is not a failure: the centre cell's
            # frame 0 is still checked in every round, through the summaries
            missing = "dtxalign.engine.run_drop result frames[0].cell_power_w"
            if missing not in self.absent:
                self.absent.append(missing)
            return
        self.problems += oracles.check_frame0(powers, _arg(args, kwargs, 0, "config"))

    def _after_write(self, args, kwargs, path) -> None:
        self.counts["output.bytes_written"] += os.path.getsize(path)

    # ------------------------------------------------------ installation

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        self._reset()
        self.absent = []
        package = [mod for name, mod in list(sys.modules.items())
                   if name == "dtxalign" or name.startswith("dtxalign.")]
        for span, modname, attr in self.FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span, original, self._hooks.get(attr))
            for mod in package:
                for name in [n for n, v in vars(mod).items() if v is original]:
                    self._patch(mod, name, wrapper)
        for span, modname, attr in self.METHODS:
            mod = sys.modules.get(modname)
            classes = [cls for cls in vars(mod).values()
                       if isinstance(cls, type) and cls.__module__ == modname
                       and callable(vars(cls).get(attr))] if mod else []
            if not classes:
                self.absent.append(f"{modname}.*.{attr}")
            for cls in classes:
                self._patch(cls, attr, self._wrap(span, vars(cls)[attr],
                                                  self._hooks.get(attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
