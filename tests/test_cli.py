import contextlib
import dataclasses
import io
import math
import os
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtxalign import cli, engine
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
    "slots: 2.0",
    "target_rate_mbps: .nan",
    "bandwidth_hz: .inf",
    "shadowing_std_db: .nan",
    "psi_ul: 2.5",
    "seed: -1",
    "p_rb_w: 0.0",
])
def test_run_rejects_bad_config_value(line, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({**SMALL_YAML, **yaml.safe_load(line)}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert any(ln.startswith("error: invalid configuration") for ln in err)


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
    "isd_m": (0.0, EPS),
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
    "shadowing_std_db": (0.0, -EPS),
    "slot_duration_s": (0.0, EPS),
    "frames": (1, 2),                  # warmup_frames is 1
    "drops": (1, 0),
    "warmup_frames": (0, -1, 3, 4),    # frames is 4
    "seed": (0, -1),
}
DEFAULTS = {f.name: f.default for f in dataclasses.fields(SimConfig)}


def boundary_values(name):
    return (DEFAULTS[name], *BOUNDS[name], 0, -1, True, "x", math.nan,
            math.inf)


def _accepted(name, value):
    try:
        SimConfig(**{**BOUNDARY_YAML, name: value})
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
    for fm in engine.run_drop(cfg, drop_seed).frames:
        assert np.all((lo <= fm.cell_power_w) & (fm.cell_power_w <= hi))
        assert np.all(fm.delivered_bits <= fm.scheduled_bits)


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
    write_algo_trace(first.algo_trace, ref, config.config_hash())
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
    a = read_lines(os.path.join(out_a, "sweep.csv"))
    b = read_lines(os.path.join(out_b, "sweep.csv"))
    assert a == b                      # byte-identical reruns
    assert len(a) == 2 + 3 * 4         # header lines + rates x strategies


def test_convergence_command(small_yaml, tmp_path, capsys):
    out = str(tmp_path / "conv")
    rc = main(["convergence", "--config", small_yaml, "--rate-mbps", "0.2",
               "--strategies", "sequential,random", "--out", out])
    assert rc == 0
    capsys.readouterr()
    lines = read_lines(os.path.join(out, "trace.csv"))
    assert len(lines) == 2 + 2 * SMALL_YAML["frames"]


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
    steps = trace_algorithm_steps(6)
    assert len(steps) == 6
    # repeating the last input drains the unused slots toward the floor
    assert steps[-1].psi[0] == 0
    assert steps[-1].psi[1] == 5
    assert steps[-1].psi[2] <= steps[2].psi[2]
    with pytest.raises(CliError):
        trace_algorithm_steps(0)


def test_trace_algorithm_file_output(tmp_path, capsys):
    out = str(tmp_path / "tr")
    assert main(["trace-algorithm", "--steps", "3", "--out", out]) == 0
    capsys.readouterr()
    lines = read_lines(os.path.join(out, "algorithm_trace.csv"))
    assert lines[1] == "frame,psi,ranking,priority"
    assert lines[2] == "1,a:0|b:3|c:5,b|c|a,c|b|a"
