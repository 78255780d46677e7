import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offloadsim import cli, sim
from offloadsim.config import (
    DEFAULT_SWEEP_VALUES,
    MAX_HORIZON_SLOTS,
    MAX_RUNS,
    SWEEP_AXES,
    ScenarioConfig,
    parse_config,
    parse_config_text,
    serialize_config,
)
from offloadsim.errors import ConfigError
from offloadsim.model import MAX_LATTICE_CELLS, State
from offloadsim.sim import means_model
from offloadsim.threshold import solve_monotone

from reference import decide


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


TINY = math.nextafter(0.0, 1.0)  # the smallest positive float


@pytest.mark.parametrize(
    "key",
    [
        "mu_cellular_mbps",
        "mu_wifi_mbps",
        "rate_std_mbps",
        "price_per_gbyte",
        "file_mbytes",
        "penalty_quadratic_coeff",
        "penalty_step_amount",
    ],
)
def test_config_non_negative_keys_reject_the_first_negative_value(key):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(**{key: math.nextafter(0.0, -1.0)})
    assert str(exc.value) == f"{key} must be >= 0"
    assert getattr(ScenarioConfig(**{key: 0.0}), key) == 0.0


# Per key, the other keys under which its smallest positive value is valid:
# a deadline of TINY minutes in TINY-second slots is 60 slots, and a grid
# step of TINY Mbit needs an empty file and zero rates.
POSITIVE_KEYS = {
    "deadline_minutes": dict(slot_seconds=TINY),
    "slot_seconds": dict(deadline_minutes=TINY),
    "grid_step_mbit": dict(mu_cellular_mbps=0, mu_wifi_mbps=0, rate_std_mbps=0, file_mbytes=0),
    "wiffler_theta": {},
}


@pytest.mark.parametrize("key", sorted(POSITIVE_KEYS))
def test_config_positive_keys_reject_zero(key):
    for zero in (0.0, -0.0):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**{key: zero})
        assert str(exc.value) == f"{key} must be > 0"
    assert getattr(ScenarioConfig(**{key: TINY}, **POSITIVE_KEYS[key]), key) == TINY


@pytest.mark.parametrize(
    "key, message",
    [
        ("grid_rows", "grid_rows and grid_cols must be >= 1"),
        ("grid_cols", "grid_rows and grid_cols must be >= 1"),
        ("runs", "runs must be >= 1"),
        ("wiffler_window", "wiffler_window must be >= 1"),
    ],
)
def test_config_count_keys_reject_zero(key, message):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(**{key: 0})
    assert str(exc.value) == message
    assert getattr(ScenarioConfig(**{key: 1}), key) == 1
    # a count passed from Python must be an integer; a numpy integer is
    # stored as an int
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**{key: bad})
        assert str(exc.value) == f"{key} must be an integer, got {bad!r}"
    assert type(getattr(ScenarioConfig(**{key: np.int64(2)}), key)) is int


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
    axis = draw(st.sampled_from(SWEEP_AXES))
    points = {  # every sweep point is a valid scenario too
        "deadline": st.integers(1, 60).map(lambda n: n * slot_seconds / 60.0),
        "mu_wifi": st.floats(0.0, 1e3),
        "file_size": st.floats(0.0, 1e4),
        "p_stay": st.floats(0.0, 1.0),
    }
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
        sweep_axis=axis,
        sweep_values=tuple(draw(st.lists(points[axis], max_size=4, unique=True))),
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


# A dotted name used to lose its suffix: run.1 and run.2 both wrote
# run.csv and run.json, the second over the first.
def test_cli_simulate_replaces_only_a_csv_or_json_suffix(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    args = ["simulate", "--config", cfg, "--schemes", "otso", "--sweep", "deadline=1"]
    for out in ("run.1", "run.2"):
        assert run_cli(args + ["--out", str(tmp_path / "dotted" / out)]) == 0
    names = ["run.1.csv", "run.1.json", "run.2.csv", "run.2.json"]
    assert sorted(p.name for p in (tmp_path / "dotted").iterdir()) == names
    for out in ("exp", "exp.csv", "exp.json"):
        assert run_cli(args + ["--out", str(tmp_path / out / out)]) == 0
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["exp.csv", "exp.json"]


# verify used to check an instance from a stream of its own, which no
# simulated run sees.
def test_verify_solve_and_simulate_plan_run_0s_instance(tmp_path, monkeypatch):
    from offloadsim import dp

    planned = []
    solve = dp.solve

    def record(model, spec, **kw):
        planned.append((sorted(model.wifi_locations), model.rate.tolist(), spec))
        return solve(model, spec, **kw)

    monkeypatch.setattr(dp, "solve", record)
    cfg = write_cfg(tmp_path, SMALL)
    first = {}
    for args in (
        ["verify", "--properties", "lemma1a"],
        ["solve", "--out", str(tmp_path / "tables")],
        ["simulate", "--schemes", "general", "--sweep", "deadline=1", "--out", str(tmp_path / "e")],
    ):
        planned.clear()
        assert run_cli([*args, "--config", cfg]) == 0
        first[args[0]] = planned[0]
    assert first["verify"] == first["solve"] == first["simulate"]


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
    model, spec, _ = next(sim.sample_runs(cfg, (0,)))
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


def modules_loaded_by_cli_import(prefixes):
    """Modules under ``prefixes`` that importing the CLI loads, in a fresh
    interpreter."""
    code = (
        "import sys, offloadsim.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


# The first sampled run loads numpy.random and the per-run stream seeding,
# so dump-config, which validates a scenario and samples nothing, does not
# pay for importing them.
SAMPLING_MODULES = ("numpy.random", "offloadsim.streams")


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a sweep with more than one worker starts a pool, so a serial
    # process (dump-config included) does not pay for importing it.
    assert modules_loaded_by_cli_import(("multiprocessing",) + SAMPLING_MODULES) == "[]"


def test_cli_import_leaves_properties_unloaded():
    # Only verify runs the structural checks, so it alone imports them.
    assert modules_loaded_by_cli_import(("offloadsim.properties",) + SAMPLING_MODULES) == "[]"


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


# Each used to end in a FileExistsError or NotADirectoryError traceback,
# and simulate and policy-map only after the work was done.
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--schemes", "otso"],
        ["policy-map", "--location", "1"],
        ["policy-map", "--location", "1", "--solver", "monotone"],
        ["solve"],
        ["solve", "--solver", "monotone"],
    ],
)
def test_cli_rejects_unwritable_out_before_any_work(tmp_path, capsys, monkeypatch, args):
    def fail(*a, **k):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_experiment", fail)
    monkeypatch.setattr(cli, "plan", fail)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, SMALL)
    assert run_cli([*args, "--config", cfg, "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory") and err.count("\n") == 1


# Each used to end in an IsADirectoryError traceback after the work was done.
@pytest.mark.parametrize(
    "args, out, blocked",
    [
        (["simulate", "--schemes", "otso"], "exp", "exp.csv"),
        (["simulate", "--schemes", "otso"], "exp", "exp.json"),
        (["solve"], "tables", "tables/value.csv"),
        (["solve", "--solver", "monotone"], "tables", "tables/thresholds.csv"),
        (["solve"], "tables", "tables/meta.json"),
        (["policy-map", "--location", "1"], "map.csv", "map.csv"),
    ],
)
def test_cli_reports_an_unwritable_output_file(tmp_path, capsys, args, out, blocked):
    (tmp_path / blocked).mkdir(parents=True)
    cfg = write_cfg(tmp_path, SMALL)
    assert run_cli([*args, "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(tmp_path / blocked)!r}")
    assert err.count("\n") == 1


def test_cli_rejects_zero_jobs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "exp"
    for jobs in ("0", "-3"):
        assert run_cli(["simulate", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "exp.csv").exists()


# Each used to exit 0 after sampling every run (a header-only CSV, or
# duplicate rows), or, for the non-numeric value, end in a traceback.
@pytest.mark.parametrize(
    "args, message",
    [
        (["--sweep", "deadline=1,abc"], "sweep value 'abc' is not a number"),
        (["--schemes", ","], "no scheme given"),
        (["--schemes", "otso,otso"], "scheme repeated"),
        (["--schemes", "otso", "--sweep", "deadline=1,1"], "sweep value repeated"),
        (["--sweep", "deadline=,"], "no sweep value given after 'deadline=,'"),
        (["--sweep", "deadline="], "no sweep value given after 'deadline='"),
    ],
)
def test_cli_rejects_bad_scheme_or_sweep_lists(tmp_path, capsys, monkeypatch, args, message):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "exp"
    assert run_cli(["simulate", "--config", cfg, *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert sampled == [] and not (tmp_path / "exp.csv").exists()


# Both used to exit 2 with the parent directories of --out already made.
@pytest.mark.parametrize(
    "args, message",
    [(["--schemes", "bogus"], "unknown scheme 'bogus'"), (["--jobs", "0"], "jobs must be >= 1")],
)
def test_cli_rejected_simulate_makes_no_directory(tmp_path, capsys, args, message):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "nd" / "sub" / "exp"
    assert run_cli(["simulate", "--config", cfg, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "nd").exists()


NOT_CONVEX = "penalty must be convex on the size grid"
# 31 epochs x 160,001 sizes x 16 locations: the default grid and deadline
OVER_BUDGET = (
    f"value lattice needs 79360496 cells (634883968 bytes), budget is {MAX_LATTICE_CELLS} cells"
)


STEP = SMALL + "penalty = step\n"
HUGE = "runs = 3\nfile_mbytes = 200000\n"
CASES = [
    f"{cmd}-{why}" for cmd in ("simulate", "solve", "policy-map") for why in ("penalty", "lattice")
]


# Each used to exit 2 only once the planner ran: with run 0 sampled and the
# output directory made.
@pytest.mark.parametrize(
    "text, args, message",
    [
        (STEP, ["simulate", "--schemes", "monotone"], NOT_CONVEX),
        (HUGE, ["simulate", "--schemes", "otso,general", "--sweep", "deadline=5"], OVER_BUDGET),
        (STEP, ["solve", "--solver", "monotone"], NOT_CONVEX),
        (HUGE, ["solve"], OVER_BUDGET),
        (STEP, ["policy-map", "--solver", "monotone", "--location", "1"], NOT_CONVEX),
        (HUGE, ["policy-map", "--location", "1"], OVER_BUDGET),
    ],
    ids=CASES,
)
def test_cli_rejects_what_a_planner_cannot_plan_before_making_anything(
    tmp_path, capsys, monkeypatch, text, args, message
):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "nd" / "sub" / "out"
    assert run_cli([*args, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sampled == [] and not (tmp_path / "nd").exists()


def test_cli_heuristics_alone_may_sweep_a_file_no_planner_could_plan(tmp_path):
    cfg = write_cfg(tmp_path, "grid_rows = 2\ngrid_cols = 2\nruns = 2\nfile_mbytes = 200000\n")
    args = ["simulate", "--config", cfg, "--schemes", "otso,wiffler", "--sweep", "deadline=5"]
    assert run_cli(args + ["--out", str(tmp_path / "exp")]) == 0
    assert len((tmp_path / "exp.csv").read_text().splitlines()) == 3


def test_cli_sweep_axis_alone_means_the_default_points():
    assert cli._parse_sweep("deadline") == ("deadline", None)


# A bare ``--sweep mu_wifi`` used to sweep the file's deadline values as
# Wi-Fi rates: a scenario's sweep_values belong to its own sweep_axis.
def test_cli_sweep_axis_alone_takes_the_files_values_only_on_its_axis(tmp_path):
    cfg = write_cfg(tmp_path, SMALL + "sweep_axis = deadline\nsweep_values = 2, 3\n")
    swept = {}
    for axis in ("mu_wifi", "deadline"):
        args = ["simulate", "--config", cfg, "--schemes", "otso", "--sweep", axis]
        assert run_cli(args + ["--out", str(tmp_path / axis)]) == 0
        rows = (tmp_path / f"{axis}.csv").read_text().splitlines()[1:]
        swept[axis] = [float(row.split(",")[0]) for row in rows]
    assert swept == {"mu_wifi": list(DEFAULT_SWEEP_VALUES["mu_wifi"]), "deadline": [2.0, 3.0]}


# run_experiment used to end in a bare KeyError on an unknown axis.
def test_unknown_sweep_axis_is_one_config_error(tmp_path, capsys, monkeypatch):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    with pytest.raises(ConfigError) as exc:
        sim.run_experiment(ScenarioConfig(runs=2), ("otso",), "bogus")
    assert "'bogus'" in str(exc.value) and str(SWEEP_AXES) in str(exc.value)
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "exp"
    assert run_cli(["simulate", "--config", cfg, "--sweep", "bogus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown sweep axis 'bogus'") and err.count("\n") == 1
    assert sampled == [] and not (tmp_path / "exp.csv").exists()


# Each used to sweep the scenario's own axis: an empty axis read as "not
# given", so "--sweep =1,2" wrote deadline rows 1.0 and 2.0.
@pytest.mark.parametrize("sweep", ["", "=1,2", " =1"])
def test_empty_sweep_axis_is_a_config_error(tmp_path, capsys, monkeypatch, sweep):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    with pytest.raises(ConfigError, match="unknown sweep axis ''"):
        sim.run_experiment(ScenarioConfig(runs=2), ("otso",), "", (1.0,))
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "nd" / "exp"
    args = ["simulate", "--config", cfg, "--schemes", "otso", "--sweep", sweep]
    assert run_cli(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown sweep axis ''") and err.count("\n") == 1
    assert sampled == [] and not (tmp_path / "nd").exists()


# Each used to sweep the default deadlines: an empty list of values read as
# "not given".  Only None leaves the values to the scenario.
@pytest.mark.parametrize("values", [(), []])
def test_empty_sweep_values_are_a_config_error(monkeypatch, values):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    cfg = ScenarioConfig(runs=2, sweep_values=(2.0, 3.0))
    for axis in ("deadline", "p_stay"):
        with pytest.raises(ConfigError, match="^no sweep value given$"):
            cfg.resolve_sweep(axis, values)
        with pytest.raises(ConfigError, match="^no sweep value given$"):
            sim.run_experiment(cfg, ("otso",), axis, values)
    assert sampled == []
    assert cfg.resolve_sweep("deadline", None)[1] == (2.0, 3.0)


# Each used to run every check (an empty list) or one check twice.
@pytest.mark.parametrize(
    "arg, message",
    [
        ("", "no property given"),
        (",", "no property given"),
        ("lemma1a,lemma1a", "property repeated"),
        ("lemma1a,bogus", "unknown property 'bogus'"),
    ],
)
def test_cli_verify_rejects_empty_or_repeated_properties(
    tmp_path, capsys, monkeypatch, arg, message
):
    from offloadsim import properties

    sampled = []
    monkeypatch.setattr(properties, "sample_runs", lambda *a: sampled.append(a))
    cfg = write_cfg(tmp_path, SMALL)
    assert run_cli(["verify", "--config", cfg, "--properties", arg]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert sampled == []


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


# Each used to pass validation: the grid and the deadline then failed to
# allocate in the first sampled run (tens of GiB), a 1e-320 s slot ended
# in an OverflowError traceback and a 1e-300 s slot was blamed on the cost
# bound.  Only configs are built here, so nothing is sampled.
@pytest.mark.parametrize(
    "over, message",
    [
        (dict(grid_rows=100_000, grid_cols=100_000), "grid_rows and grid_cols too large"),
        (dict(grid_rows=1, grid_cols=7072), "grid_rows and grid_cols too large"),
        (dict(deadline_minutes=1e9), "deadline_minutes too large"),
        (dict(slot_seconds=1e-300), "the horizon is 3e+302 slots"),
        (dict(slot_seconds=1e-320), "the horizon is inf slots"),
        (dict(deadline_minutes=(MAX_HORIZON_SLOTS + 1) / 6), "the horizon is"),
        (dict(runs=MAX_RUNS + 1), "runs too large"),
        (dict(runs=10**23), "runs too large"),
    ],
)
def test_oversized_grid_or_horizon_rejected(over, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ScenarioConfig(**over)


def test_size_bounds_admit_their_limits():
    assert ScenarioConfig(grid_rows=1, grid_cols=7071).num_locations ** 2 <= MAX_LATTICE_CELLS
    assert ScenarioConfig(deadline_minutes=MAX_HORIZON_SLOTS / 6).horizon == MAX_HORIZON_SLOTS
    assert ScenarioConfig(runs=MAX_RUNS).runs == MAX_RUNS


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid_rows = 100000\ngrid_cols = 100000\n", "grid_rows and grid_cols too large"),
        ("deadline_minutes = 1e9\n", "deadline_minutes too large"),
        ("slot_seconds = 1e-320\n", "deadline_minutes too large"),
        ("runs = 1000000000000\n", "runs too large"),
        ("sweep_values = 1, 1\n", "sweep value repeated"),
        # each used to pass here and fail only in simulate
        ("sweep_values = nan\n", "sweep_values entry nan is not valid: deadline_minutes"),
        ("sweep_values = 1, inf\n", "sweep_values entry inf is not valid"),
        ("sweep_values = -2\n", "sweep_values entry -2.0 is not valid"),
        ("sweep_values = 0\n", "sweep_values entry 0.0 is not valid"),
        ("sweep_axis = p_stay\nsweep_values = 0.5, 1.5\n", "sweep_values entry 1.5"),
    ],
)
def test_dump_config_rejects_oversized_or_repeated_values(tmp_path, text, message):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    args = [sys.executable, "-m", "offloadsim.cli", "dump-config", "--config", write_cfg(tmp_path, text)]
    out = subprocess.run(args, env=env, capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert message in out.stderr and "Traceback" not in out.stderr


def test_rate_step_count_must_fit_the_planners_indices():
    # 1e19 grid steps per slot is finite but beyond exact integer step counts
    with pytest.raises(ConfigError, match="mu_cellular_mbps too large"):
        parse_config_text("mu_cellular_mbps = 1e19\n")
    parse_config_text("mu_cellular_mbps = 1e14\n")


# The rounding warning used to print as ``.../sim.py:<line>: UserWarning:``
# followed by that source line, named no scenario key, and came once per
# worker of a sweep that plans nothing.  Workers started by ``spawn`` (the
# macOS default) or ``forkserver`` do not inherit the caller's warnings
# registry, so the sweep with workers runs under each start method.
_SWEEP_WITH_WORKERS = [
    "simulate", "--schemes", "otso", "--sweep", "deadline=1,2", "--jobs", "2", "--out", "exp"
]


@pytest.mark.parametrize(
    "args, start_method",
    [
        pytest.param(
            ["simulate", "--schemes", "otso", "--sweep", "deadline=1", "--out", "exp"],
            "fork",
            id="args0",
        ),
        pytest.param(_SWEEP_WITH_WORKERS, "fork", id="args1"),
        pytest.param(["solve", "--out", "solved"], "fork", id="args2"),
        pytest.param(_SWEEP_WITH_WORKERS, "spawn", id="args1-spawn"),
        pytest.param(_SWEEP_WITH_WORKERS, "forkserver", id="args1-forkserver"),
    ],
)
def test_cli_prints_a_rounded_file_size_as_one_warning_naming_its_keys(
    tmp_path, args, start_method
):
    cfg = write_cfg(tmp_path, "grid_rows = 2\ngrid_cols = 2\nfile_mbytes = 1.3\nruns = 3\n")
    # two CPUs whatever the host has, so that --jobs 2 starts two workers
    code = (
        "import multiprocessing, sys; from offloadsim import cli, sim; "
        f"multiprocessing.set_start_method({start_method!r}); "
        "sim.available_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-c", code, *args, "--config", cfg]
    out = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == (
        "warning: file size 10.4 rounded up to 20.0 (next multiple of 10.0): "
        "the size in Mbit is 8 x file_mbytes, on a grid of grid_step_mbit\n"
    )
    assert out.stdout.startswith(("swept deadline", "wrote policy.csv"))
    with pytest.warns(UserWarning, match="^file size 10.4 rounded up"):  # what library callers get
        sim.problem_spec(parse_config(cfg))


# Bad input on generated scenario files, through every command in-process.
# An earlier one-off fuzz of 320 such files through every command, run as
# subprocesses, found no fault, so this is a guard.  The base scenario is tiny.  Sizes past
# their bounds (lattice, horizon, runs) stay past them under every other edit
# the strategy can draw, so a missing check would allocate and run for long.
MAX_FLOAT = sys.float_info.max
FUZZ_BASE = {"grid_rows": "2", "grid_cols": "2", "file_mbytes": "12.5", "runs": "2", "seed": "7"}
FUZZ_VALID = ["0", "-0.0", repr(TINY), repr(MAX_FLOAT), "1", "2", "0.5"]  # and boundaries
FUZZ_BAD = ["nan", "inf", "-inf", "-1", "-2.5", "", "1.2.3", "ten", "0x10", "1 2", "1e"]
FUZZ_KEY_VALUES = {  # per key, valid values and bad ones
    "penalty": (["quadratic", "step"], ["cubic"]),
    "sweep_axis": (list(SWEEP_AXES), ["bogus"]),
    "sweep_values": (["1, 2", "0.5"], ["1, 1", "0.5, nan", "1, inf", "-2"]),
    "seed": ([str(2**256)], []),
    "wiffler_window": ([str(10**12)], []),
}
FUZZ_OVER_BOUND = [
    ("grid_cols", "7072"),  # 7072**2 mobility cells, past MAX_LATTICE_CELLS with any grid_rows
    ("deadline_minutes", repr((MAX_HORIZON_SLOTS + 1) / 6)),  # slots of at most 10 s
    ("runs", str(MAX_RUNS + 1)),
]
FUZZ_COMMANDS = [
    ["dump-config"],
    ["solve", "--out", "out/solved"],
    ["solve", "--solver", "monotone", "--out", "out/solved"],
    ["policy-map", "--location", "1", "--out", "out/map.csv"],
    ["verify"],
    ["simulate", "--out", "out/exp"],
]
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@st.composite
def fuzzed_scenarios(draw):
    """A scenario file: the tiny base with up to three keys given drawn
    values, perhaps one size past its bound, a repeated key, an unknown key
    or a line that is not ``key = value``."""
    lines = dict(FUZZ_BASE)
    keys = [f.name for f in dataclasses.fields(ScenarioConfig)]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        valid, bad = FUZZ_KEY_VALUES.get(key, ([], []))
        lines[key] = draw(st.sampled_from(FUZZ_VALID + valid) | st.sampled_from(FUZZ_BAD + bad))
    # one file in four each has a size past its bound and a bad extra line
    over = draw(st.sampled_from([None] * 9 + FUZZ_OVER_BOUND))
    if over:
        lines[over[0]] = over[1]
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    text += draw(st.sampled_from([""] * 9 + ["runs = 2\n", "no_such_key = 1\n", "a line\n"]))
    return text, over is not None


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(fuzzed_scenarios(), st.sampled_from(FUZZ_COMMANDS))
# 16 Mbit rounds up to 20 with a warning, and then a step penalty is not convex
@example(("file_mbytes = 2\npenalty = step\n", False), FUZZ_COMMANDS[2])
def test_generated_bad_scenarios_end_in_an_exit_code_through_every_command(
    tmp_path_factory, scenario, command
):
    text, over_bound = scenario
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scenario.cfg").write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", "scenario.cfg"])  # no exception may escape
    finally:
        os.chdir(cwd)
    stderr = err.getvalue()
    assert code in (0, 2, 3), (code, stderr)
    assert code == 2 or not over_bound, text
    if code == 2:
        # a spec's rounding warning may come before a planner check fails
        lines = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr
        assert stderr.endswith("\n") and not (root / "out").exists()
    if code == 0:
        written = [p.read_text() for p in (root / "out").rglob("*") if p.is_file()]
        for content in written + ([out.getvalue()] if command == ["dump-config"] else []):
            assert not NAN.search(content), (text, command)


# Every command once with numpy's and the standard library's deprecations
# as errors, so a call deprecated in the installed numpy fails Tier-1.
@pytest.mark.parametrize(
    "args",
    [
        ["dump-config"],
        ["solve", "--out", "solved"],
        ["solve", "--solver", "monotone", "--out", "solved"],
        ["policy-map", "--location", "2", "--out", "map.csv"],
        ["verify"],
        ["simulate", "--sweep", "deadline=0.5,1", "--out", "exp"],
    ],
)
def test_every_command_runs_with_deprecations_as_errors(tmp_path, args):
    cfg = write_cfg(tmp_path, SMALL)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    warn = ["-W", "error::DeprecationWarning", "-W", "error::FutureWarning"]
    argv = [sys.executable, *warn, "-m", "offloadsim.cli", *args, "--config", cfg]
    out = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
