import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offloadsim import cli
from offloadsim.config import (
    SWEEP_AXES,
    ScenarioConfig,
    parse_config,
    parse_config_text,
    serialize_config,
)
from offloadsim.errors import ConfigError
from offloadsim.model import State
from offloadsim.sim import means_model
from offloadsim.threshold import decide, solve_monotone


def test_empty_config_gives_baseline_defaults():
    cfg = parse_config_text("")
    assert cfg.slot_seconds == 10.0
    assert cfg.grid_step_mbit == 10.0
    assert cfg.price_per_gbyte == 6.0
    assert cfg.penalty_quadratic_coeff == 1.0
    assert cfg.wiffler_theta == 1.0
    assert cfg.wiffler_window == 4
    assert cfg.p_stay == 0.6
    assert cfg.wifi_prob == 0.5
    assert cfg.rate_std_mbps == 5.0
    assert cfg.mu_cellular_mbps == 90.0


def test_horizon_from_deadline():
    cfg = parse_config_text("deadline_minutes = 2\n")
    assert cfg.horizon == 12


def test_probability_bounds_checked():
    with pytest.raises(ConfigError, match="p_stay"):
        parse_config_text("p_stay = 1.5\n")


def test_unknown_and_bad_keys_are_named():
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError, match="runs"):
        parse_config_text("runs = many\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("runs = 3\nruns = 4\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_non_integral_slot_count_rejected():
    with pytest.raises(ConfigError, match="slot count"):
        parse_config_text("deadline_minutes = 0.25\nslot_seconds = 9\n")


def test_round_trip():
    cfg = ScenarioConfig(
        grid_rows=3,
        grid_cols=5,
        p_stay=0.1,
        wifi_prob=0.25,
        mu_wifi_mbps=42.5,
        file_mbytes=92.5,
        deadline_minutes=3.0,
        penalty="step",
        runs=77,
        seed=99,
        sweep_axis="mu_wifi",
        sweep_values=(10.0, 20.0),
    )
    assert parse_config_text(serialize_config(cfg)) == cfg


GENERATED = settings(derandomize=True, max_examples=100, deadline=None, database=None)
FLOAT_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]


@st.composite
def valid_configs(draw):
    """Any valid scenario; the ranges keep every derived quantity finite."""
    slot_seconds = draw(st.floats(0.5, 60.0))
    slots = draw(st.integers(1, 60))
    return ScenarioConfig(
        grid_rows=draw(st.integers(1, 6)),
        grid_cols=draw(st.integers(1, 6)),
        p_stay=draw(st.floats(0.0, 1.0)),
        wifi_prob=draw(st.floats(0.0, 1.0)),
        mu_cellular_mbps=draw(st.floats(0.0, 1e3)),
        mu_wifi_mbps=draw(st.floats(0.0, 1e3)),
        rate_std_mbps=draw(st.floats(0.0, 1e2)),
        price_per_gbyte=draw(st.floats(0.0, 1e2)),
        file_mbytes=draw(st.floats(0.0, 1e4)),
        deadline_minutes=slots * slot_seconds / 60.0,
        slot_seconds=slot_seconds,
        grid_step_mbit=draw(st.floats(1e-2, 1e2)),
        penalty=draw(st.sampled_from(("quadratic", "step"))),
        penalty_quadratic_coeff=draw(st.floats(0.0, 10.0)),
        penalty_step_amount=draw(st.floats(0.0, 1e6)),
        wiffler_theta=draw(st.floats(1e-3, 10.0)),
        wiffler_window=draw(st.integers(1, 20)),
        runs=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64)),
        sweep_axis=draw(st.sampled_from(SWEEP_AXES)),
        sweep_values=tuple(draw(st.lists(st.floats(-1e6, 1e6), max_size=4))),
    )


def _replace_line(text, key, raw):
    lines = [f"{key} = {raw}" if line.startswith(f"{key} = ") else line for line in text.splitlines()]
    return "\n".join(lines) + "\n"


@GENERATED
@given(valid_configs())
def test_any_valid_config_survives_a_file_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "scenario.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert parse_config(path) == cfg


@GENERATED
@given(valid_configs(), st.integers(1, 2**64), st.integers(0, 60), st.floats(0.01, 0.99))
def test_generated_invalid_values_raise_config_error(cfg, below_zero, slots, fraction):
    # every float key non-finite, a negative seed, a non-integral slot count
    bad = [(key, raw) for key in FLOAT_KEYS for raw in ("nan", "inf", "-inf")]
    bad.append(("seed", str(-below_zero)))
    bad.append(("deadline_minutes", repr((slots + fraction) * cfg.slot_seconds / 60.0)))
    text = serialize_config(cfg)
    for key, raw in bad:
        with pytest.raises(ConfigError):
            parse_config_text(_replace_line(text, key, raw))


def test_comments_and_blank_lines():
    cfg = parse_config_text("# scenario\n\nruns = 5  # quick\n")
    assert cfg.runs == 5


def run_cli(args):
    return cli.main(list(args))


def write_cfg(tmp_path, text):
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    return str(p)


SMALL = (
    "grid_rows = 2\ngrid_cols = 2\nfile_mbytes = 125\ndeadline_minutes = 1\n"
    "runs = 4\nseed = 7\n"
)


def test_cli_solve_general(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "solved"
    assert run_cli(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "policy.csv").exists()
    assert (out / "value.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["solver"] == "general"
    assert meta["instance"]["horizon"] == 6


def test_cli_solve_monotone(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "solved"
    assert run_cli(["solve", "--config", cfg, "--solver", "monotone", "--out", str(out)]) == 0
    assert (out / "thresholds.csv").exists()


def test_cli_simulate(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "exp"
    code = run_cli(
        [
            "simulate",
            "--config",
            cfg,
            "--schemes",
            "otso,no-offload",
            "--sweep",
            "deadline=1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = (tmp_path / "exp.csv").read_text()
    assert text.splitlines()[0].startswith("sweep_value,scheme")
    assert len(text.splitlines()) == 1 + 2 * 2
    mirror = json.loads((tmp_path / "exp.json").read_text())
    assert mirror["config"]["seed"] == 7


def test_cli_policy_map_shape(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "map.csv"
    assert run_cli(["policy-map", "--config", cfg, "--location", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 6  # horizon
    assert len(rows[0].split(",")) == 101  # grid points + 1
    assert set("".join(rows).replace(",", "")) <= set("012")


def test_cli_policy_map_empty_file_all_idle(tmp_path):
    cfg = write_cfg(tmp_path, SMALL + "file_mbytes = 0\n")
    # duplicate key would fail; write a fresh config instead
    cfg = write_cfg(
        tmp_path,
        "grid_rows = 2\ngrid_cols = 2\nfile_mbytes = 0\ndeadline_minutes = 1\nruns = 1\n",
    )
    out = tmp_path / "map.csv"
    assert run_cli(["policy-map", "--config", cfg, "--location", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert all(set(r.split(",")) == {"0"} for r in rows)


def test_cli_policy_map_monotone_matches_general_for_flat_cost(tmp_path):
    # with zero rate spread the sampled instance meets the planner's
    # preconditions only in its rates; maps still agree structurally
    cfgtext = SMALL + "rate_std_mbps = 0\n"
    cfg = write_cfg(tmp_path, cfgtext)
    out = tmp_path / "map_mono.csv"
    assert run_cli(
        ["policy-map", "--config", cfg, "--solver", "monotone", "--location", "1", "--out", str(out)]
    ) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 6


# Scenario keys over a 2x3 grid and a 125 MB file; the slow links put the
# frontiers inside the file.
POLICY_MAP_CASES = {
    "default": {},
    "slow-links": dict(mu_cellular_mbps=10, mu_wifi_mbps=4, deadline_minutes=2),
    "wifi-faster": dict(mu_wifi_mbps=120, wifi_prob=0.6),
    "all-wifi": dict(wifi_prob=1, mu_cellular_mbps=12, mu_wifi_mbps=4, deadline_minutes=2),
    "no-wifi": dict(wifi_prob=0, mu_cellular_mbps=12, deadline_minutes=2),
    "empty-file": dict(file_mbytes=0),
}


@pytest.mark.parametrize("name", sorted(POLICY_MAP_CASES))
def test_cli_policy_map_monotone_matches_decide_per_cell(tmp_path, name):
    keys = dict(grid_rows=2, grid_cols=3, file_mbytes=125, seed=11)
    keys.update(POLICY_MAP_CASES[name])
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg_path = write_cfg(tmp_path, text)
    cfg = parse_config(cfg_path)
    model, spec = cli._instance_for(cfg)
    tp, _ = solve_monotone(means_model(cfg, model, spec), spec)
    for l in range(1, model.num_locations + 1):
        out = tmp_path / f"map{l}.csv"
        args = ["policy-map", "--config", cfg_path, "--solver", "monotone", "--location", str(l)]
        assert run_cli(args + ["--out", str(out)]) == 0
        want = "".join(
            ",".join(
                str(int(decide(tp, State(n * spec.grid_step, l), t)))
                for n in range(spec.grid_points + 1)
            )
            + "\n"
            for t in range(1, spec.horizon + 1)
        )
        assert out.read_text() == want, (name, l)


def test_cli_verify_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    code = run_cli(["verify", "--config", cfg])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS lemma1a" in captured
    assert "PASS oracle" in captured
    assert "FAIL" not in captured


def test_cli_verify_skips_on_step_penalty(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + "penalty = step\n")
    code = run_cli(["verify", "--config", cfg, "--properties", "theorem2,lemma1a"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "SKIP theorem2" in captured
    assert "PASS lemma1a" in captured


def test_cli_verify_property_failure_exit_code(tmp_path, monkeypatch, capsys):
    from offloadsim.properties import CheckResult

    monkeypatch.setattr(
        cli, "run_verification", lambda cfg, props: [CheckResult("lemma1a", "fail", "boom")]
    )
    cfg = write_cfg(tmp_path, SMALL)
    assert run_cli(["verify", "--config", cfg]) == 3
    assert "FAIL lemma1a" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p_stay = 2.0\n")
    assert run_cli(["verify", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path):
    assert run_cli(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(["solve", "--config", cfg, "--seed", "1", "--out", str(out1)])
    run_cli(["solve", "--config", cfg, "--seed", "1", "--out", str(out2)])
    assert (out1 / "policy.csv").read_text() == (out2 / "policy.csv").read_text()


def test_cli_dump_config(capsys):
    assert run_cli(["dump-config"]) == 0
    text = capsys.readouterr().out
    assert "slot_seconds = 10.0" in text
    cfg = parse_config_text(text)
    assert cfg == ScenarioConfig()


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a sweep with more than one worker starts a pool, so a serial
    # process (dump-config included) does not pay for importing it.
    code = (
        "import sys, offloadsim.cli; "
        "print([m for m in sys.modules if m.startswith('multiprocessing')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_properties_unloaded():
    # Only verify runs the structural checks, so it alone imports them.
    code = "import sys, offloadsim.cli; print('offloadsim.properties' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# `dump-config` loads and validates the scenario and samples nothing, so a
# missing check shows up as exit code 0 rather than as a hang in the
# sampler or a traceback from the planner.


def test_cli_rejects_nan_rate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + "mu_cellular_mbps = nan\n")
    assert run_cli(["dump-config", "--config", cfg]) == 2
    assert "mu_cellular_mbps must be a finite number" in capsys.readouterr().err


def test_cli_rejects_infinite_price(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + "price_per_gbyte = inf\n")
    assert run_cli(["dump-config", "--config", cfg]) == 2
    assert "price_per_gbyte must be a finite number" in capsys.readouterr().err


def test_cli_rejects_infinite_file_size(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "file_mbytes = inf\n")
    assert run_cli(["dump-config", "--config", cfg]) == 2
    assert "file_mbytes must be a finite number" in capsys.readouterr().err


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed = -1\n")
    assert run_cli(["dump-config", "--config", cfg]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert run_cli(["dump-config", "--seed", "-1"]) == 2


def test_cli_rejects_zero_jobs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "exp"
    for jobs in ("0", "-3"):
        assert run_cli(["simulate", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "exp.csv").exists()


# Finite values whose derived quantities overflow: at 1e308 the per-slot
# rates and the file size in Mbit are inf, and the price makes each run's
# cost so large that its confidence interval overflows.  Each used to end
# in an OverflowError traceback or in inf/NaN metrics.
@pytest.mark.parametrize(
    "key",
    ["file_mbytes", "mu_cellular_mbps", "mu_wifi_mbps", "rate_std_mbps", "price_per_gbyte"],
)
def test_cli_rejects_overflowing_value(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, f"grid_rows = 2\ngrid_cols = 2\nruns = 4\n{key} = 1e308\n")
    out = tmp_path / "exp"
    args = ["simulate", "--config", cfg, "--schemes", "otso,wiffler", "--sweep", "deadline=1"]
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "too large" in err and key in err
    assert not (tmp_path / "exp.csv").exists()


def test_rate_step_count_must_fit_the_planners_indices():
    # 1e19 grid steps per slot is finite but beyond exact integer step counts
    with pytest.raises(ConfigError, match="mu_cellular_mbps too large"):
        parse_config_text("mu_cellular_mbps = 1e19\n")
    parse_config_text("mu_cellular_mbps = 1e14\n")
