import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import math
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtxalign import cli, engine
from dtxalign.channel import BOLTZMANN_J_PER_K
from dtxalign.cli import (CliError, main, parse_config, parse_rates,
                          parse_strategies, trace_algorithm_steps)
from dtxalign.config import CONFIG_FIELD_NAMES, STRATEGIES, SimConfig
from dtxalign.output import write_algo_trace

SMALL_YAML = dict(tiers=1, mobiles_per_cell=3, subcarriers=8, slots=4,
                  frames=8, warmup_frames=3, drops=2)


@pytest.fixture
def small_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(SMALL_YAML))
    return str(path)


def test_parse_config_defaults():
    assert parse_config(None, {}) == SimConfig()


def test_parse_config_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert parse_config(str(path), {}) == SimConfig()


def test_parse_config_precedence(small_yaml):
    cfg = parse_config(small_yaml, {"frames": 12, "seed": None})
    assert cfg.frames == 12          # flag beats file
    assert cfg.tiers == 1            # file beats default
    assert cfg.seed == 1             # None flag falls through to default


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("not_a_field: 3\n")
    with pytest.raises(CliError, match="unknown config keys"):
        parse_config(str(path), {})


def test_parse_config_rejects_invalid_values(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("p_persist: 1.5\n")
    with pytest.raises(CliError, match="invalid configuration"):
        parse_config(str(path), {})


@pytest.mark.parametrize("line", [
    "isd_m: .nan",
    "isd_m: 1.0e-200",
    "slots: 2.0",
    "target_rate_mbps: .nan",
    "bandwidth_hz: .inf",
    "shadowing_std_db: .nan",
    "shadowing_std_db: 1.0e+6",
    "psi_ul: 2.5",
    "seed: -1",
    "p_rb_w: 0.0",
    pytest.param("isd_m: 1" + "0" * 400, id="isd_m: 10**400"),
    pytest.param("frames: 1" + "0" * 30, id="frames: 10**30"),
    pytest.param("psi_ul: 1" + "0" * 30, id="psi_ul: 10**30"),
    pytest.param("psi_ll: -1" + "0" * 30, id="psi_ll: -10**30"),
    pytest.param("tiers: 1" + "0" * 30, id="tiers: 10**30"),
    pytest.param("drops: 1" + "0" * 30, id="drops: 10**30"),
    # valid fields whose products would overflow float64 in a run
    "target_rate_mbps: 1.0e+308",
    "p_rb_w: 1.0e+308",
    "load_factor: 1.0e+308",
    "p_idle_w: 1.0e+308",
    "p_sleep_w: 1.0e+308",
    "slot_duration_s: 1.0e+308",
    "{slot_duration_s: 1.0e-10, target_rate_mbps: 1.0e+300}",
    "{slot_duration_s: 1.0e+150, target_rate_mbps: 1.0e-100}",
    # the noise power underflows to 0 or is subnormal, or the transmit
    # power has no peak-power bound: each would make an SINR inf
    "noise_temp_k: 1.0e-320",
    "bandwidth_hz: 1.0e-300",
    "{load_factor: 0.0, p_rb_w: 1.0e+308}",
])
def test_run_rejects_bad_config_value(line, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({**SMALL_YAML, **yaml.safe_load(line)}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: invalid configuration")
    assert not (tmp_path / "res").exists()


def test_config_hash_ignores_how_a_number_is_spelled(tmp_path):
    # an int given for a float field, and numpy's int for an int field,
    # build the same config as the plain float and int: same hash
    assert SimConfig(isd_m=500).config_hash() == \
        SimConfig(isd_m=500.0).config_hash()
    seeded = SimConfig(seed=np.int64(3))
    assert type(seeded.seed) is int
    assert seeded.config_hash() == SimConfig(seed=3).config_hash()
    hashes = set()
    for text in ("isd_m: 500\n", "isd_m: 500.0\n"):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        config = parse_config(str(path), {})
        assert type(config.isd_m) is float
        hashes.add(config.config_hash())
    assert hashes == {SimConfig().config_hash()}


# A small run for the boundary test: tiers <= 1, <= 4 subcarriers, <= 3
# slots, <= 3 mobiles, <= 4 frames and 1 drop.
BOUNDARY_YAML = dict(tiers=1, mobiles_per_cell=3, subcarriers=4, slots=3,
                     frames=4, warmup_frames=1, drops=1)
EPS = 1e-9
# Each bound of a field's valid range beside its neighbour across the
# bound, so every rule is probed on both sides (relative to BOUNDARY_YAML
# where one field bounds another).
BOUNDS = {
    "tiers": (0, -1),
    "isd_m": (1e-100, math.nextafter(1e-100, 0.0),
              1e100, math.nextafter(1e100, math.inf)),
    "mobiles_per_cell": (1, 0),
    "subcarriers": (1, 0),
    "slots": (1, 0),
    "target_rate_mbps": (0.0, EPS),
    "strategy": STRATEGIES,
    "p_persist": (0.0, -EPS, 1.0, 1.0 + EPS),
    "psi_ul": (0, -1),                 # psi_ll defaults to 0
    "psi_ll": (5, 6),                  # psi_ul defaults to 5
    "p_sleep_w": (0.0, -EPS),
    "p_idle_w": (0.0, -EPS),
    "load_factor": (0.0, -EPS),
    "p_rb_w": (0.0, EPS),
    "bandwidth_hz": (0.0, EPS),
    "noise_temp_k": (0.0, EPS),
    "shadowing_std_db": (0.0, -EPS, 100.0, math.nextafter(100.0, math.inf)),
    "slot_duration_s": (0.0, EPS),
    "frames": (1, 2),                  # warmup_frames is 1
    "drops": (1, 0),
    "warmup_frames": (0, -1, 3, 4),    # frames is 4
    "seed": (0, -1),
}
# The upper bounds of int fields, tested like BOUNDS but kept out of the
# boundary draws, which would run the accepted 2^40-frame or 10^5-drop
# config.
UPPER_BOUNDS = {
    "tiers": (100, 101),
    "mobiles_per_cell": (2**40, 2**40 + 1),
    "subcarriers": (2**40, 2**40 + 1),
    "slots": (2**40, 2**40 + 1),
    "frames": (2**40, 2**40 + 1),
    "drops": (10**5, 10**5 + 1),
    "psi_ul": (2**62, 2**62 + 1),
    "psi_ll": (-2**62, -2**62 - 1),
}
DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimConfig)}


def boundary_values(name):
    return (DEFAULTS[name], *BOUNDS[name], 0, -1, True, "x", math.nan,
            math.inf)


def _accepted(name, value, **fixed):
    try:
        SimConfig(**{**BOUNDARY_YAML, **fixed, name: value})
    except (TypeError, ValueError):
        return False
    return True


def boundary_value(name):
    """Any value of the field's boundary set, drawn from the values
    SimConfig accepts half the time, so that a good share of the drawn
    configs run rather than stop at the boundary."""
    values = boundary_values(name)
    accepted = [v for v in values if _accepted(name, v)]
    return st.one_of(st.sampled_from(accepted), st.sampled_from(values))


@pytest.mark.parametrize("name", BOUNDS)
def test_config_bounds_exact(name):
    """In each (bound, neighbour) pair of BOUNDS and UPPER_BOUNDS exactly
    one value builds, the one on the side of the field's valid value in
    BOUNDARY_YAML (or its default), so each rule sits exactly at its
    bound.  Every strategy builds."""
    values = BOUNDS[name] + UPPER_BOUNDS.get(name, ())
    if name == "strategy":
        assert all(_accepted(name, v) for v in values)
        return
    valid = BOUNDARY_YAML.get(name, DEFAULTS[name])
    for pair in zip(values[::2], values[1::2]):
        inside = min(pair, key=lambda v: abs(v - valid))
        assert [_accepted(name, v) for v in pair] == \
            [v == inside for v in pair], pair


# Each product of fields that SimConfig bounds, probed through one field
# near a guess of its edge, with other fields fixed where they would
# bound the field first: (product, field, guess, fixed).
PRODUCT_EDGES = [
    ("target bits per frame", "target_rate_mbps", 1e100 / 3e3, {}),
    ("target_rate_mbps * mobiles_per_cell", "target_rate_mbps", 1e100 / 3,
     {"slot_duration_s": 1e-10}),
    ("RB bit scale", "slot_duration_s", 4e93, {"target_rate_mbps": 1e-10}),
    ("peak cell power", "p_rb_w", 1e100 / 15, {}),
    ("peak cell power", "p_sleep_w", 1e100, {}),
    # smaller noise temperatures fail: 0.8 W over k_B T (10 MHz / 4)
    ("transmit-to-noise ratio per RB", "noise_temp_k",
     0.8 / 1e200 / (BOLTZMANN_J_PER_K * 2.5e6), {}),
]


def product_edge(name, guess, fixed):
    """The config changes that set field `name` to the value within 8
    floats of guess that builds beside one that fails, and to that
    neighbour, whichever side of the edge fails."""
    values = [guess]
    for _ in range(8):
        values = [math.nextafter(values[0], 0.0), *values,
                  math.nextafter(values[-1], math.inf)]
    built = [_accepted(name, v, **fixed) for v in values]
    for i in range(len(values) - 1):
        if built[i] != built[i + 1]:
            inside, outside = (values[i], values[i + 1]) if built[i] \
                else (values[i + 1], values[i])
            return {**fixed, name: inside}, {**fixed, name: outside}
    raise AssertionError(f"no edge of {name} near {guess}")


@pytest.mark.parametrize("product,name,guess,fixed", PRODUCT_EDGES)
def test_product_bounds_exact(product, name, guess, fixed):
    """At each product's edge, the next float of the field on the failing
    side fails on that product's rule."""
    _, outside = product_edge(name, guess, fixed)
    with pytest.raises(ValueError, match=re.escape(product)):
        SimConfig(**{**BOUNDARY_YAML, **outside})


def at_product_edges(test):
    """Add both sides of each product edge as explicit examples."""
    for _, name, guess, fixed in PRODUCT_EDGES:
        for changes in product_edge(name, guess, fixed):
            test = example(changes=changes)(test)
    return test


CONFIG_CHANGES = st.lists(st.sampled_from(CONFIG_FIELD_NAMES), min_size=3,
                          max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries(
        {n: boundary_value(n) for n in names}))


def _power_bounds(cfg):
    lo = min(cfg.p_sleep_w, cfg.p_idle_w) * (1.0 - EPS)
    hi = (max(cfg.p_sleep_w, cfg.p_idle_w)
          + cfg.load_factor * cfg.p_rb_w * cfg.subcarriers) * (1.0 + EPS)
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(changes=CONFIG_CHANGES)
@example(changes={"p_rb_w": 0.0})
@example(changes={"frames": 1, "warmup_frames": 0})
@at_product_edges
def test_config_boundary(changes):
    """Any config either fails with an `error: invalid configuration` line
    and exit status 1, or runs to results that keep the invariants."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({**BOUNDARY_YAML, **changes}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "--config", path, "--out",
                       os.path.join(tmp, "res")])
        if rc == 1:
            assert any(ln.startswith("error: invalid configuration")
                       for ln in err.getvalue().splitlines())
            return
        assert rc == 0, err.getvalue()
        sweep = read_lines(os.path.join(tmp, "res", "sweep.csv"))
        cfg = parse_config(path, {})
    lo, hi = _power_bounds(cfg)
    row = dict(zip(sweep[1].split(","), sweep[2].split(",")))
    assert lo <= float(row["mean_power_w"]) <= hi
    assert 0.0 <= float(row["retransmission_prob"]) <= 1.0
    assert 0.0 <= float(row["outage_rate"]) <= 1.0
    assert 0 <= int(row["convergence_frame"]) < cfg.frames
    drop_seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    result = engine.run_drop(cfg, drop_seed)
    assert result.cell_power_w.shape == (cfg.frames, cfg.num_cells)
    assert np.all((lo <= result.cell_power_w) & (result.cell_power_w <= hi))
    assert np.all(result.delivered_bits <= result.scheduled_bits)


def test_parse_config_missing_file():
    with pytest.raises(CliError, match="not found"):
        parse_config("/nonexistent/cfg.yaml", {})


def test_parse_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(CliError, match="key-value mapping"):
        parse_config(str(path), {})


def test_parse_rates():
    assert parse_rates("0.5:1.5:0.5") == pytest.approx([0.5, 1.0, 1.5])
    # a range stops at its last step within the stop, never past it,
    # and keeps a stop that rounding puts a hair short of a step
    assert parse_rates("1:1.8:0.3") == pytest.approx([1.0, 1.3, 1.6])
    assert parse_rates("1:2.45:0.5") == pytest.approx([1.0, 1.5, 2.0])
    assert parse_rates("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_rates("0.5:3.0:0.25") == pytest.approx(
        [0.5 + 0.25 * i for i in range(11)])
    assert len(parse_rates("1:1000:1")) == cli.MAX_RATES
    assert parse_rates("2") == [2.0]
    assert parse_rates("1,2.5") == [1.0, 2.5]
    for bad in ("1:2", "2:1:0.5", "1:2:-1", "0", "-1,2"):
        with pytest.raises(CliError):
            parse_rates(bad)


def test_parse_rates_range_cap():
    assert len(parse_rates(f"1:{cli.MAX_RATES}:1")) == cli.MAX_RATES
    with pytest.raises(CliError, match="more than"):
        parse_rates(f"1:{cli.MAX_RATES + 1}:1")


# a span that overflows to inf, and a finite range of 1e10 rates
@pytest.mark.parametrize("spec", ["-1e308:1e308:1", "0.001:1e7:0.001"])
def test_sweep_rejects_oversized_rate_range(spec, small_yaml, tmp_path,
                                            capsys):
    rc = main(["sweep", "--config", small_yaml, f"--rates={spec}",
               "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert any(ln.startswith("error: rate range gives more than")
               for ln in err)
    assert not os.path.exists(tmp_path / "res")


@pytest.mark.parametrize("spec", ["1,abc", "1:x:1", "nan", "inf"])
def test_sweep_rejects_rates_that_are_not_finite_numbers(spec, small_yaml,
                                                         tmp_path, capsys):
    with pytest.raises(CliError):
        parse_rates(spec)
    rc = main(["sweep", "--config", small_yaml, "--rates", spec,
               "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert any(ln.startswith("error: rate") for ln in err)


def test_parse_strategies():
    assert parse_strategies("all") == [
        "sequential", "random", "p_persistent", "memory"]
    assert parse_strategies("memory,random") == ["memory", "random"]
    with pytest.raises(CliError):
        parse_strategies("bogus")


@pytest.mark.parametrize("spec", [",", " ", ""],
                         ids=["sweep-comma", "sweep-blank", "sweep-empty"])
def test_empty_strategy_list_is_an_error(spec, small_yaml, tmp_path, capsys):
    out = tmp_path / "res"
    rc = main(["sweep", "--config", small_yaml, "--strategies", spec,
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0] == "error: no strategies given"
    assert not out.exists()


@pytest.mark.parametrize("option,spec,message", [
    ("--strategies", "memory,memory", "strategies must not repeat"),
    ("--strategies", "random,memory,random", "strategies must not repeat"),
    ("--rates", "1,1.0", "rates must not repeat"),
    ("--rates", "0.5,2,0.50", "rates must not repeat"),
])
def test_repeated_sweep_entry_is_an_error(option, spec, message, small_yaml,
                                          tmp_path, capsys):
    # a repeated (strategy, rate) pair would run its drops twice and
    # write its rows twice
    out = tmp_path / "res"
    rc = main(["sweep", "--config", small_yaml, option, spec,
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: {message}"]
    assert not out.exists()


def test_sweep_rejects_a_rate_the_config_cannot_take(small_yaml, tmp_path,
                                                     capsys):
    # SMALL_YAML's frames last 4 ms: 1e99 Mbps is 4e102 bits a frame
    out = tmp_path / "res"
    rc = main(["sweep", "--config", small_yaml, "--rates", "1,1e99",
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["error: invalid configuration: target bits per frame "
                   "must be <= 1e100"]
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["run", "sweep", "trace-algorithm"])
def test_unwritable_outdir_is_an_error_line(command, below, small_yaml,
                                            tmp_path, capsys, monkeypatch):
    # an --out that is a regular file, or a path below one, cannot be made
    # a directory (whatever the user's permissions)
    simulated = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda *a: simulated.append(a) or [])
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "res" if below else blocker
    args = [command, "--out", str(out)]
    if command != "trace-algorithm":
        args += ["--config", small_yaml]
    rc = main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and \
        err[0].startswith("error: output directory not writable")
    assert simulated == []
    assert blocker.read_text() == ""


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_run_command_outputs(small_yaml, tmp_path, capsys):
    out = str(tmp_path / "res")
    rc = main(["run", "--config", small_yaml, "--strategy", "memory",
               "--rate-mbps", "0.2", "--out", out])
    assert rc == 0
    assert "mean_power" in capsys.readouterr().out
    for name in ("resolved_config.yaml", "sweep.csv", "trace.csv",
                 "algorithm_trace.csv"):
        assert os.path.isfile(os.path.join(out, name)), name
    sweep = read_lines(os.path.join(out, "sweep.csv"))
    assert sweep[0].startswith("# config_hash=")
    assert sweep[1].split(",")[0] == "strategy"
    assert len(sweep) == 3
    trace = read_lines(os.path.join(out, "trace.csv"))
    assert len(trace) == 2 + SMALL_YAML["frames"]
    # frame 0 is the full-power frame: 200 + 3 * subcarriers
    first = trace[2].split(",")
    assert first[2] == "0" and float(first[3]) == pytest.approx(224.0)


def test_run_simulates_each_drop_once(small_yaml, tmp_path, monkeypatch, capsys):
    # drops may run in forked workers, which share files but not a list
    log = tmp_path / "calls.log"
    run_drop = engine.run_drop

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_drop(*args, **kwargs)

    # patch every name the drop simulator is reachable under
    monkeypatch.setattr(engine, "run_drop", counting)
    monkeypatch.setattr(cli, "run_drop", counting, raising=False)
    out = str(tmp_path / "res")
    assert main(["run", "--config", small_yaml, "--strategy", "memory",
                 "--rate-mbps", "0.2", "--drops", "2", "--out", out]) == 0
    capsys.readouterr()
    calls = log.read_text().splitlines()
    assert len(calls) == 2
    # the algorithm trace is drop 0 of the run's own drops
    config = parse_config(small_yaml, {"strategy": "memory",
                                       "target_rate_mbps": 0.2, "drops": 2})
    first = run_drop(config, np.random.SeedSequence(config.seed).spawn(2)[0])
    ref = str(tmp_path / "ref")
    os.makedirs(ref)
    write_algo_trace((first.psi[:, 0], first.ranking[:, 0],
                      first.priority[:, 0]), ref, config.config_hash())
    assert read_lines(os.path.join(out, "algorithm_trace.csv")) == \
        read_lines(os.path.join(ref, "algorithm_trace.csv"))


def test_run_no_algorithm_trace_for_sequential(small_yaml, tmp_path):
    out = str(tmp_path / "res")
    rc = main(["run", "--config", small_yaml, "--strategy", "sequential",
               "--rate-mbps", "0.2", "--out", out])
    assert rc == 0
    assert not os.path.exists(os.path.join(out, "algorithm_trace.csv"))


def test_sweep_row_count_and_determinism(small_yaml, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    argv = ["sweep", "--config", small_yaml, "--rates", "0.1,0.2,0.3",
            "--strategies", "all"]
    assert main(argv + ["--out", out_a]) == 0
    assert main(argv + ["--out", out_b]) == 0
    capsys.readouterr()
    # header lines + rates x strategies, and as many traces of every frame
    for name, rows in (("sweep.csv", 3 * 4),
                       ("trace.csv", 3 * 4 * SMALL_YAML["frames"])):
        a = read_lines(os.path.join(out_a, name))
        b = read_lines(os.path.join(out_b, name))
        assert a == b, name            # byte-identical reruns
        assert len(a) == 2 + rows, name


def test_resolved_config_echo(small_yaml, tmp_path):
    out = str(tmp_path / "res")
    main(["run", "--config", small_yaml, "--strategy", "sequential",
          "--rate-mbps", "0.2", "--out", out])
    lines = read_lines(os.path.join(out, "resolved_config.yaml"))
    assert lines[0].startswith("# config_hash=")
    loaded = yaml.safe_load("\n".join(lines[1:]))
    assert loaded["tiers"] == 1
    assert loaded["target_rate_mbps"] == 0.2


def test_error_exit_status(tmp_path, capsys):
    rc = main(["run", "--config", "/missing.yaml", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# Each asks for tens of TiB, which fails at allocation and touches no
# memory; with two drops the pool re-raises a worker's error.
@pytest.mark.parametrize("argv", [
    ["trace-algorithm", "--steps", "1000000000000"],
    ["run", "--frames", "1000000000000", "--drops", "1"],
    ["run", "--frames", "1000000000000", "--drops", "2"],
], ids=["trace-algorithm", "run-in-process", "run-pooled"])
def test_out_of_memory_is_an_error_line(argv, small_yaml, tmp_path, capsys):
    if argv[0] == "run":
        argv = argv + ["--config", small_yaml, "--out", str(tmp_path / "res")]
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: out of memory")


@pytest.mark.parametrize("content", [
    b"1: 2\nfoo: 3\n",          # keys of mixed types
    b"tiers: [\n",              # a YAML parser error
    b"\xfftiers: 1\n",          # not UTF-8
], ids=["mixed-keys", "unclosed-list", "not-utf8"])
def test_run_rejects_malformed_config_file(content, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")


# Changes that keep behaviour must keep these bytes, so the suite checks
# them on every run instead of a diff by hand.  The pins hold for Python
# 3.11.7 with numpy 2.4.6; another build may round differently.  A change
# to a pin needs an argument in CHANGES.md.
PINNED_SHA256 = {
    "sweep/sweep.csv":
        "f921b82f016c4d7031175fdb1e32fe63b1fa653c4c3eda42b448288d31e92ae9",
    "sweep/trace.csv":
        "d5522529dc8cdee1ef43a3f33e3bd970f73b78233a12e84d832b981e3f6f3f79",
    "run/sweep.csv":
        "e775add4145ea5dd2976f5b7814a1062e492b48d34baa0ee1e98454213c11f5f",
    "run/trace.csv":
        "eac6656be053ff159983313a4a05e30fba48173e63a14bccf13c6f9752484d62",
    "run/algorithm_trace.csv":
        "08a08218aa49988f38f7d87d08f9fcda057e1b887368afec0f473b7c7ab9d37a",
}


def test_outputs_pinned(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(dict(tiers=1, frames=20, warmup_frames=5,
                                       drops=2)))
    assert main(["sweep", "--config", str(cfg), "--rates", "0.5,2.0",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert main(["run", "--config", str(cfg), "--strategy", "memory",
                 "--rate-mbps", "1.0", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_SHA256}
    assert got == PINNED_SHA256


def test_trace_algorithm_walkthrough(capsys):
    rc = main(["trace-algorithm", "--steps", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "step 1: psi={a:0,b:3,c:5} V=(c,b,a)",
        "step 2: psi={a:0,b:5,c:5} V=(b,c,a)",
        "step 3: psi={a:0,b:5,c:4} V=(b,c,a)",
    ]


def test_trace_algorithm_extended_steps():
    psi, ranking, priority = trace_algorithm_steps(6)
    assert psi.shape == ranking.shape == priority.shape == (6, 3)
    # repeating the last input drains the unused slots toward the floor
    assert psi[-1, 0] == 0
    assert psi[-1, 1] == 5
    assert psi[-1, 2] <= psi[2, 2]
    with pytest.raises(CliError):
        trace_algorithm_steps(0)


def test_trace_algorithm_file_output(tmp_path, capsys):
    out = str(tmp_path / "tr")
    assert main(["trace-algorithm", "--steps", "3", "--out", out]) == 0
    capsys.readouterr()
    lines = read_lines(os.path.join(out, "algorithm_trace.csv"))
    assert lines[1] == "frame,psi,ranking,priority"
    assert lines[2] == "1,a:0|b:3|c:5,b|c|a,c|b|a"


def test_docs_and_scripts_name_only_real_commands():
    """Every `dtx-sim` line of README's CLI block and every job of
    scripts/reproduce_results.py parses (nothing is simulated), so a
    command cannot go while it is still documented or scripted."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("dtx-sim ")]
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", root / "scripts" / "reproduce_results.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argvs = [shlex.split(ln)[1:] for ln in lines] + script.jobs("res", 2, 1)
    assert len(lines) >= 3
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).func, argv
