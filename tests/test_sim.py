import dataclasses
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offloadsim import dp, model as model_module, sim
from offloadsim.config import MAX_RUNS, MAX_SWEEP_RECORDS, ScenarioConfig
from offloadsim.errors import (
    ConfigError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SchemeError,
)
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    State,
    StepPenalty,
    admissible_actions,
    next_file_size,
    payment,
)
from offloadsim.sim import (
    SCHEMES,
    EpisodeResult,
    build_grid_mobility,
    means_model,
    plan_run,
    problem_spec,
    run_episode,
    run_experiment,
    sample_instance,
    sample_trajectory,
    worker_count,
)
from offloadsim.streams import run_streams, seed_states
from offloadsim.threshold import MonotoneModel, solve_monotone

from reference import (
    WifflerState,
    decide as threshold_decide,
    make_agent,
    no_offload_decide,
    otso_decide,
    sample_trajectory_full_rows,
    truncated_normal,
    wiffler_decide,
    wiffler_observe,
)


def small_cfg(**over):
    base = dict(
        grid_rows=2,
        grid_cols=2,
        file_mbytes=125.0,
        deadline_minutes=1.0,
        runs=8,
        seed=4242,
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_grid_mobility_values():
    P = build_grid_mobility(4, 4, 0.6)
    assert P.shape == (16, 16)
    assert P[6, 6] == pytest.approx(0.6)  # interior cell 7
    for nb in (2, 5, 7, 10):
        assert P[6, nb] == pytest.approx(0.1)
    assert P[0, 0] == pytest.approx(0.6)  # corner cell 1
    for nb in (1, 4):
        assert P[0, nb] == pytest.approx(0.2)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_grid_mobility_degenerate():
    assert build_grid_mobility(1, 1, 0.3).tolist() == [[1.0]]
    with pytest.raises(ConfigError):
        build_grid_mobility(4, 4, 1.5)


def test_truncated_normal_nonnegative():
    rng = np.random.default_rng(0)
    draws = [truncated_normal(rng, 1.0, 5.0) for _ in range(500)]
    assert min(draws) >= 0.0
    assert truncated_normal(rng, 7.0, 0.0) == 7.0
    assert truncated_normal(rng, -3.0, 0.0) == 0.0


def test_sample_instance_wifi_extremes_and_units():
    cfg = small_cfg(wifi_prob=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(1).spawn(4))
    assert model.wifi_locations == frozenset()

    cfg = small_cfg(wifi_prob=1.0, rate_std_mbps=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(1).spawn(4))
    assert model.wifi_locations == frozenset({1, 2, 3, 4})
    # 90 Mbps over a 10 s slot = 900 Mbit; 20 Mbps = 200 Mbit
    assert model.rate_of(1, Action.CELLULAR) == pytest.approx(900.0)
    assert model.rate_of(1, Action.WIFI) == pytest.approx(200.0)
    assert model.price_of(1, Action.CELLULAR) == pytest.approx(6.0 / 8000.0)
    assert spec.file_size == pytest.approx(1000.0)
    assert spec.horizon == 6


def test_sample_instance_deterministic_per_rng_seed():
    cfg = small_cfg()
    m1, s1 = sample_instance(cfg, np.random.default_rng(7).spawn(4))
    m2, s2 = sample_instance(cfg, np.random.default_rng(7).spawn(4))
    assert m1.wifi_locations == m2.wifi_locations
    assert np.array_equal(m1.rate, m2.rate)
    assert s1.initial_location == s2.initial_location


@pytest.mark.parametrize("penalty", ["quadratic", "step"])
def test_sampled_specs_differ_only_in_the_initial_location(penalty):
    # every run of a scenario plans one transfer task: only the start, which
    # a walk takes from the run's path, varies from run to run
    cfg = small_cfg(runs=1, penalty=penalty)
    specs = [sample_instance(cfg, inst)[1] for inst, _ in run_streams(cfg.seed, range(40))]
    assert len({s.initial_location for s in specs}) > 1
    names = [f.name for f in dataclasses.fields(ProblemSpec) if f.name != "initial_location"]
    for spec in specs[1:]:
        assert [getattr(spec, n) for n in names] == [getattr(specs[0], n) for n in names]


def test_trajectory_starts_at_initial_location():
    cfg = small_cfg()
    model, spec = sample_instance(cfg, np.random.default_rng(3).spawn(4))
    traj = sample_trajectory(model, spec, np.random.default_rng(4))
    assert len(traj) == spec.horizon
    assert traj[0] == spec.initial_location
    assert all(1 <= l <= model.num_locations for l in traj)


def test_run_episode_empty_file():
    cfg = small_cfg(file_mbytes=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(5).spawn(4))
    traj = sample_trajectory(model, spec, np.random.default_rng(6))
    ep = run_episode(make_agent("no-offload", model, spec, cfg, traj), spec=spec)
    assert ep.completed
    assert ep.total_cost == 0.0
    assert ep.trajectory == ()


def test_plan_run_rejects_a_path_shorter_than_the_horizon():
    cfg = small_cfg()
    model, spec, path = next(sim.sample_runs(cfg, [0]))
    (otso,) = plan_run(["otso"], model, spec, cfg, path)
    assert run_episode(otso, spec=spec).trajectory  # the whole path walks
    with pytest.raises(ValueError) as exc:
        plan_run(["otso"], model, spec, cfg, path[:-1])
    assert str(exc.value) == "trajectory shorter than the horizon"


@pytest.mark.parametrize("bad", [0, 5])
def test_plan_run_rejects_a_path_off_the_locations(bad):
    cfg = small_cfg()  # a 2x2 grid: locations 1..4
    model, spec, path = next(sim.sample_runs(cfg, [0]))
    # the first slot, the last one walked, and one past the horizon
    for at in (0, spec.horizon - 1, spec.horizon):
        off = list(path) + [1]
        off[at] = bad
        with pytest.raises(DomainError) as exc:
            plan_run(["otso", "wiffler"], model, spec, cfg, off)
        assert str(exc.value) == f"location {bad} out of range 1..4"


def test_plan_rejects_a_scheme_that_does_not_plan():
    cfg = small_cfg()
    model, spec, _ = next(sim.sample_runs(cfg, [0]))
    with pytest.raises(ConfigError) as exc:
        sim.plan("otso", cfg, model, spec)
    assert str(exc.value) == "unknown solver 'otso'; expected one of ('general', 'monotone')"


# Both used to be raised by the planner, after run 0 was sampled.
def test_run_experiment_checks_the_planners_on_every_point_before_sampling(monkeypatch):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    with pytest.raises(PreconditionError, match="^penalty must be convex on the size grid$"):
        run_experiment(small_cfg(penalty="step"), ("otso", "monotone"), "mu_wifi", (20.0,))
    # the longest horizon's lattice is named, the one a deadline sweep plans on
    cfg = ScenarioConfig(runs=2, file_mbytes=300_000.0)
    with pytest.raises(ResourceLimitError, match="^value lattice needs 119040496 cells"):
        run_experiment(cfg, ("general",), "deadline", (3.0, 5.0))
    assert sampled == []
    sim.check_plannable(("otso", "wiffler"), (cfg,))  # no planner, nothing to check


def test_no_offload_closed_form_payment():
    # deterministic rates on a single cell: payment is exactly size * price
    cfg = small_cfg(grid_rows=1, grid_cols=1, rate_std_mbps=0.0, file_mbytes=625.0)
    model, spec = sample_instance(cfg, np.random.default_rng(8).spawn(4))
    traj = sample_trajectory(model, spec, np.random.default_rng(9))
    ep = run_episode(make_agent("no-offload", model, spec, cfg, traj), spec=spec)
    assert ep.completed
    assert ep.total_payment == pytest.approx(5000.0 * 6.0 / 8000.0, rel=1e-12)
    assert ep.penalty_paid == 0.0
    assert ep.slots_cellular == 6  # 5000 Mbit at 900 Mbit per slot
    assert ep.slots_waiting == 0


def test_episode_counts_and_penalty_flag():
    cfg = small_cfg(runs=20)
    rng = np.random.default_rng(10)
    for scheme in SCHEMES:
        model, spec = sample_instance(cfg, np.random.default_rng(11).spawn(4))
        traj = sample_trajectory(model, spec, np.random.default_rng(12))
        ep = run_episode(make_agent(scheme, model, spec, cfg, traj), spec=spec)
        assert ep.slots_cellular + ep.slots_wifi + ep.slots_waiting <= spec.horizon
        assert ep.total_cost == pytest.approx(ep.total_payment + ep.penalty_paid)
        assert ep.completed == (ep.penalty_paid == 0.0)


def test_episode_rejects_inadmissible_scheme():
    # decision data that sends over Wi-Fi where there is none
    cfg = small_cfg(wifi_prob=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(13).spawn(4))
    traj = sample_trajectory(model, spec, np.random.default_rng(14))
    otso = make_agent("otso", model, spec, cfg, traj)
    bad = otso._replace(actions=[int(Action.WIFI)] * model.num_locations)
    with pytest.raises(SchemeError):
        run_episode(bad, spec=spec)


def test_episode_rejects_decisions_for_another_instance():
    cfg = small_cfg()
    model, spec = sample_instance(cfg, np.random.default_rng(13).spawn(4))
    traj = sample_trajectory(model, spec, np.random.default_rng(14))
    otso = make_agent("otso", model, spec, cfg, traj)
    coarser = dataclasses.replace(spec, grid_step=20.0)
    with pytest.raises(ValueError, match="size grid"):
        run_episode(otso, spec=coarser)
    # twice the file on the same grid, and another penalty: every scheme,
    # including those whose plans would be read past their table
    bigger = dataclasses.replace(spec, file_size=2 * spec.file_size)
    harsher = dataclasses.replace(spec, penalty=StepPenalty(1.0))
    for x in plan_run(SCHEMES, model, spec, cfg, traj):
        for other, what in ((bigger, "file size"), (harsher, "penalty")):
            with pytest.raises(ValueError, match=what):
                run_episode(x, spec=other)


def test_common_random_numbers_across_schemes():
    cfg = small_cfg(runs=4)
    res = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,))
    # same environments: both schemes saw identical location paths, which
    # shows up as identical run counts and, for run 0, identical traces
    inst_streams, traj_rng = _run_rngs(cfg, 0)
    model, spec = sample_instance(cfg, inst_streams)
    traj = sample_trajectory(model, spec, traj_rng)
    a = run_episode(make_agent("no-offload", model, spec, cfg, traj), spec=spec)
    b = run_episode(make_agent("otso", model, spec, cfg, traj), spec=spec)
    assert a.trajectory == tuple(traj[: len(a.trajectory)])
    assert b.trajectory == tuple(traj[: len(b.trajectory)])


def test_experiment_deterministic_output():
    cfg = small_cfg(runs=6)
    r1 = run_experiment(cfg, ("otso", "wiffler"), "deadline", (1.0, 2.0))
    r2 = run_experiment(cfg, ("otso", "wiffler"), "deadline", (1.0, 2.0))
    assert r1.to_csv_text() == r2.to_csv_text()


def test_experiment_jobs_match_serial(monkeypatch):
    monkeypatch.setattr(sim, "available_cpus", lambda: 2)  # two workers whatever the host has
    cfg = small_cfg(runs=6)
    serial = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,))
    parallel = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,), jobs=2)
    assert serial.to_csv_text() == parallel.to_csv_text()
    # a deadline sweep shares each run's plans across its points; a sweep on
    # another axis plans each run once per point
    cfg = small_cfg(runs=5, mu_cellular_mbps=10.0, mu_wifi_mbps=4.0)
    schemes = ("general", "monotone", "wiffler")
    sweeps = {"deadline": (2.0, 1.0), "mu_wifi": (4.0, 12.0), "p_stay": (0.9, 0.3)}
    for axis, values in sweeps.items():
        serial = run_experiment(cfg, schemes, axis, values)
        parallel = run_experiment(cfg, schemes, axis, values, jobs=2)
        assert serial.to_csv_text() == parallel.to_csv_text(), axis


def test_experiment_jobs_match_serial_under_spawn(tmp_path, monkeypatch):
    # workers that import the program afresh rather than fork the caller:
    # the default start method on macOS
    cfg = small_cfg(runs=5, mu_cellular_mbps=10.0, mu_wifi_mbps=4.0)
    monkeypatch.setattr(sim, "available_cpus", lambda: 2)  # two workers whatever the host has
    outputs = []
    for jobs in (1, 2):
        if jobs == 2:
            monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
        res = run_experiment(cfg, SCHEMES, "deadline", (2.0, 1.0), jobs=jobs)
        res.write_csv(tmp_path / f"{jobs}.csv")
        res.write_json(tmp_path / f"{jobs}.json")
        outputs.append([(tmp_path / f"{jobs}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]


# Links slow enough that the deadline binds: cellular needs 10 of the 6-18
# slots, so plans and paths past the first slots decide the outcome.
SWEEP_CASES = {
    "deadline": (dict(mu_cellular_mbps=10.0, mu_wifi_mbps=4.0), (3.0, 1.0, 2.0)),
    "mu_wifi": (dict(mu_cellular_mbps=10.0, deadline_minutes=2.0), (4.0, 12.0)),
}


@pytest.mark.parametrize("axis", sorted(SWEEP_CASES))
def test_sweep_matches_single_point_experiments(axis):
    over, values = SWEEP_CASES[axis]
    cfg = small_cfg(runs=6, **over)
    swept = run_experiment(cfg, SCHEMES, axis, values).to_csv_text().splitlines()
    rows = [swept[0]]
    for value in values:
        rows += run_experiment(cfg, SCHEMES, axis, (value,)).to_csv_text().splitlines()[1:]
    assert swept == rows


def test_experiment_validates_every_point_before_walking(monkeypatch):
    walked = []
    monkeypatch.setattr(sim, "run_episode", lambda *a, **k: walked.append(a))
    # 1.05 minutes are 6.3 ten-second slots
    with pytest.raises(ConfigError, match="slot count"):
        run_experiment(small_cfg(runs=2), ("otso",), "deadline", (1.0, 1.05))
    assert walked == []


def test_sweep_calls_each_layer_once_per_unit_of_work(monkeypatch):
    # The benchmark's tracer wraps these three functions where the sweep
    # looks them up and reads the spec from run_episode's keyword "spec".
    episodes, solves, planned = [], {"general": 0, "monotone": 0}, []
    walk, exact, frontier, plan = sim.run_episode, dp.solve, sim.solve_monotone, sim.plan_run

    def counted_walk(*args, **kwargs):
        ep = walk(*args, **kwargs)
        episodes.append((args, kwargs, ep))
        return ep

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            solves[name] += 1
            assert kwargs.get("values") is False  # the sweep reads only decisions
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sim, "run_episode", counted_walk)
    monkeypatch.setattr(dp, "solve", counted("general", exact))
    monkeypatch.setattr(sim, "solve_monotone", counted("monotone", frontier))
    monkeypatch.setattr(sim, "plan_run", lambda *a: planned.append(plan(*a)) or planned[-1])
    # 6, 1 and 2 slots: no-offload finishes in 2
    cfg = small_cfg(runs=3)
    deadlines = (1.0, 1 / 6, 2 / 6)
    run_experiment(cfg, SCHEMES, "deadline", deadlines)

    assert solves == {"general": 3, "monotone": 3}
    assert len(planned) == cfg.runs
    expected = []  # run-major: per run, points from the longest down, per scheme walked
    carried = rewalked = 0
    for j, plans in enumerate(planned):
        inst_rng, traj_rng = _run_rngs(cfg, j)
        model, spec = sample_instance(cfg, inst_rng)
        assert plans[0].run.spec == spec
        assert plans[0].run.path == sample_trajectory(model, spec, traj_rng)
        longest = [walk(x, spec=spec) for x in plans]
        for horizon in (6, 2, 1):
            for scheme, x, ep in zip(SCHEMES, plans, longest):
                # one action per location: a walk that finished within the
                # point's slots is not walked again
                if horizon < 6 and scheme in ("no-offload", "otso"):
                    if ep.completed and len(ep.trajectory) <= horizon:
                        carried += 1
                        continue
                    rewalked += 1
                expected.append((x, horizon))
    assert carried > 0 and rewalked > 0
    assert len(episodes) == len(expected) == 3 * 3 * len(SCHEMES) - carried
    # a point's walks, in every run and whatever its start, get one spec
    # object: the point's own, not the run's
    points = {p.horizon: p for p in cfg.resolve_sweep("deadline", deadlines)[2]}
    handed = {}  # horizon -> the ids of the spec objects its walks got
    for (args, kwargs, ep), (x, horizon) in zip(episodes, expected):
        assert args == (x,) and kwargs == {"spec": problem_spec(points[horizon])}
        handed.setdefault(horizon, set()).add(id(kwargs["spec"]))  # episodes keeps each alive
        assert isinstance(ep, EpisodeResult)
    assert sorted(handed) == [1, 2, 6] and all(len(s) == 1 for s in handed.values())

    # points that differ in more than their deadline share nothing: one
    # plan per (run, point), each walked once per scheme
    del episodes[:], planned[:]
    solves.update(general=0, monotone=0)
    rates = (4.0, 12.0)
    run_experiment(cfg, SCHEMES, "mu_wifi", rates)
    units = len(rates) * cfg.runs
    assert solves == {"general": units, "monotone": units}
    assert len(episodes) == units * len(SCHEMES)

    def key(model, spec, path):
        return model.rate.tobytes(), spec.initial_location, tuple(path)

    want = []
    for mu in rates:
        point = dataclasses.replace(cfg, mu_wifi_mbps=mu)
        for j in range(cfg.runs):
            inst_rng, traj_rng = _run_rngs(point, j)
            model, spec = sample_instance(point, inst_rng)
            want.append(key(model, spec, sample_trajectory(model, spec, traj_rng)))
    assert len(set(want)) == len(want)
    assert sorted(key(*plans[0].run[:3]) for plans in planned) == sorted(want)


def test_benchmark_tracer_finds_every_layer_it_wraps():
    # The tracer skips a wrap target the program no longer has, and that
    # layer then reports no calls; a rename here must fail instead.
    paths = [Path(__file__).resolve().parents[1] / "perfbench", Path(sim.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    code = "import json, tracer; print(json.dumps(tracer.install(tracer.Tracer())))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_counts_every_layer_of_a_sweep(tmp_path):
    # The tracer reads run_episode's spec keyword, both planners' arguments
    # and the walk's result; a change to any of them must fail here, not
    # only in the benchmark's self-test.
    tracer = _perfbench_tracer()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("grid_rows = 2\ngrid_cols = 2\nfile_mbytes = 125\nruns = 2\nseed = 7\n")
    args = ["simulate", "--config", str(scenario), "--sweep", "deadline=1,2", "--out"]
    env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))
    spans = tmp_path / "spans.json"
    for name, cmd in (
        ("traced", [sys.executable, tracer.__file__, str(spans)]),
        ("plain", [sys.executable, "-m", "offloadsim.cli"]),
    ):
        out = subprocess.run(cmd + args + [str(tmp_path / name)], env=env, capture_output=True)
        assert out.returncode == 0, out.stderr.decode()
    for ext in ("csv", "json"):
        assert (tmp_path / f"traced.{ext}").read_bytes() == (tmp_path / f"plain.{ext}").read_bytes()

    layers = tracer.summarize(json.loads(spans.read_text())["spans"])
    counts = {
        "sim.run_episode": {"slots", "horizon_slots"},
        "dp.solve": {"action_cells"},
        "threshold.solve_monotone": {"lattice_cells", "band_cells"},
        "sim.output": {"bytes"},
    }
    for name, keys in counts.items():
        assert layers[name]["calls"] > 0, name
        assert set(layers[name]["counts"]) == keys, name
        assert all(v > 0 for v in layers[name]["counts"].values()), name


def test_single_run_aggregate_equals_episode():
    cfg = small_cfg(runs=1)
    res = run_experiment(cfg, ("no-offload",), "deadline", (1.0,))
    m = res.metrics[(1.0, "no-offload")]
    inst_streams, traj_rng = _run_rngs(cfg, 0)
    model, spec = sample_instance(cfg, inst_streams)
    traj = sample_trajectory(model, spec, traj_rng)
    ep = run_episode(make_agent("no-offload", model, spec, cfg, traj), spec=spec)
    assert m.mean_total_cost == pytest.approx(ep.total_cost)
    assert m.mean_payment == pytest.approx(ep.total_payment)
    assert m.completion_probability == (1.0 if ep.completed else 0.0)


def test_experiment_rejects_unknown_scheme():
    cfg = small_cfg()
    with pytest.raises(ConfigError, match="scheme"):
        run_experiment(cfg, ("teleport",), "deadline", (1.0,))


def test_experiment_json_mirror(tmp_path):
    cfg = small_cfg(runs=3)
    res = run_experiment(cfg, ("otso",), "deadline", (1.0,))
    out_csv = tmp_path / "result.csv"
    out_json = tmp_path / "result.json"
    res.write_csv(out_csv)
    res.write_json(out_json)
    data = json.loads(out_json.read_text())
    assert data["sweep_axis"] == "deadline"
    assert data["config"]["runs"] == 3
    assert data["rows"][0]["scheme"] == "otso"
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("sweep_value,scheme,runs,completion_prob")


def test_monotone_agent_plans_from_mean_rates():
    # the threshold agent must not depend on the sampled per-location rates
    cfg = small_cfg(runs=1, rate_std_mbps=5.0)
    model, spec = sample_instance(cfg, np.random.default_rng(15).spawn(4))
    tp = frontier_plan(cfg, model, spec)
    assert tp.horizon == spec.horizon
    # planner input was built from configured means, not instance draws
    net = means_model(cfg, model)
    mu_c = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    mu_w = cfg.rate_mbit_per_slot(cfg.mu_wifi_mbps)
    assert mu_c == 900.0 and (net.rate[:, Action.CELLULAR] == mu_c).all()
    wifi_rows = [l - 1 for l in model.wifi_locations]
    assert wifi_rows and (net.rate[wifi_rows, Action.WIFI] == mu_w).all()
    assert np.count_nonzero(net.rate[:, Action.WIFI]) == len(wifi_rows)  # none off coverage
    assert net.wifi_locations == model.wifi_locations and net.mobility is model.mobility
    assert np.array_equal(net.price, model.price)
    assert tp.grid_step == spec.grid_step
    traj = sample_trajectory(model, spec, np.random.default_rng(16))
    agent = make_agent("monotone", model, spec, cfg, traj)
    halved = dataclasses.replace(model, rate=model.rate * 0.5)
    other = make_agent("monotone", halved, spec, cfg, traj)
    assert np.array_equal(table_cells(agent, spec), table_cells(other, spec))
    ep = run_episode(agent, spec=spec)
    assert ep.total_cost >= 0.0


def frontier_plan(cfg, model, spec):
    """The frontier planner's ``ThresholdPolicy`` for a sampled instance, on
    ``means_model``'s network through the regime check."""
    return solve_monotone(MonotoneModel.from_network_model(means_model(cfg, model), spec), spec)[0]


def table_cells(x, spec):
    """Every cell ``x.table(e, l - 1, n)`` of a planned scheme's decisions
    with ``n >= 1`` grid steps left, as an (epochs, locations, N) array."""
    sizes, locations = range(1, spec.grid_points + 1), range(x.run.model.num_locations)
    cells = [[[x.table(e, i, n) for n in sizes] for i in locations] for e in range(x.run.spec.horizon)]
    return np.array(cells, dtype=np.int8)


def test_longest_plan_walks_every_deadline_like_a_plan_for_it():
    # Wi-Fi faster than cellular, so the rows that never switch are read too
    cfg = small_cfg(mu_cellular_mbps=10.0, mu_wifi_mbps=12.0, deadline_minutes=3.0)
    model, spec = sample_instance(cfg, _run_rngs(cfg, 1)[0])
    rate = means_model(cfg, model).rate
    tp = frontier_plan(cfg, model, spec)
    assert all(rate[l - 1, Action.WIFI] > rate[l - 1, Action.CELLULAR] for l in tp.wifi_locations)
    assert 0 < len(tp.wifi_locations) < 4
    assert all((tp.k_star_idx[l - 1] == spec.grid_points + 1).all() for l in tp.wifi_locations)
    for scheme in ("general", "monotone"):
        completed = set()
        for j in range(4):
            traj = sample_trajectory(model, spec, _run_rngs(cfg, j)[1])
            longest = make_agent(scheme, model, spec, cfg, traj)
            for offset in range(spec.horizon):
                tail = dataclasses.replace(spec, horizon=spec.horizon - offset)
                own = make_agent(scheme, model, tail, cfg, traj)
                want = run_episode(own, spec=tail)
                got = run_episode(longest, spec=tail)
                assert got == want, (scheme, j, offset)
                completed.add(want.completed)
        assert completed == {True, False}, scheme  # finished and penalised walks


def test_walk_past_the_planned_horizon_is_a_named_error():
    # 2x2 at 1 Mbps: plans for 6 slots, and no scheme finishes in 12
    cfg = small_cfg(mu_cellular_mbps=1.0, mu_wifi_mbps=1.0)
    model, spec = sample_instance(cfg, _run_rngs(cfg, 0)[0])
    longer = dataclasses.replace(spec, horizon=12)
    traj = sample_trajectory(model, longer, _run_rngs(cfg, 0)[1])
    plans = plan_run(SCHEMES, model, spec, cfg, traj)
    for scheme, x in zip(SCHEMES, plans):
        assert x.run.spec.horizon == 6
        assert not run_episode(x, spec=spec).completed
        with pytest.raises(ValueError, match="planned for 6 slots, not 12"):
            run_episode(x, spec=longer)
        own = make_agent(scheme, model, longer, cfg, traj)
        assert not run_episode(own, spec=longer).completed


def test_worker_count_caps_at_runs_and_cpus():
    assert worker_count(10**12, 1000, 2) == 2
    assert worker_count(10**12, 3, 64) == 3
    assert worker_count(8, 1000, None) == 1
    assert worker_count(1, 1000, 64) == 1
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="jobs"):
            worker_count(bad, 1000, 2)


def test_workers_capped_at_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert sim.available_cpus() == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one CPU")

    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfg = small_cfg(runs=4)
    serial = run_experiment(cfg, ("otso",), "deadline", (1.0,))
    assert run_experiment(cfg, ("otso",), "deadline", (1.0,), jobs=2).to_csv_text() == (
        serial.to_csv_text()
    )
    # without an affinity call the machine's CPU count is the cap
    monkeypatch.delattr(sim.os, "sched_getaffinity")
    assert sim.available_cpus() == 64


def test_experiment_rejects_zero_jobs():
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(small_cfg(runs=2), ("otso",), "deadline", (1.0,), jobs=0)


@pytest.mark.parametrize(
    "schemes, values, match",
    [
        ((), (1.0,), "no scheme"),
        (("otso", "wiffler", "otso"), (1.0,), "scheme repeated"),
        (("otso",), (1.0, 2.0, 1.0), "sweep value repeated"),
        # a string used to be read as its letters ("unknown scheme 'g'"), and
        # a bare number raised a TypeError
        ("general", (1.0,), "^expected a list of scheme entries, got 'general'$"),
        (("otso",), 5, "^expected a list of sweep value entries, got 5$"),
    ],
)
def test_experiment_rejects_empty_or_repeated_schemes_and_values(
    monkeypatch, schemes, values, match
):
    sampled = []
    monkeypatch.setattr(sim, "sample_instance", lambda *a: sampled.append(a))
    with pytest.raises(ConfigError, match=match):
        run_experiment(small_cfg(runs=2), schemes, "deadline", values)
    assert sampled == []
    if not isinstance(values, tuple):  # the scenario's own values take the same rule
        with pytest.raises(ConfigError, match=match):
            small_cfg(sweep_values=values)


def test_sweep_records_over_their_budget_are_refused_before_anything_is_sampled():
    # 6 points x 5 schemes x MAX_RUNS runs: 1.44 GB of per-episode records.
    # check_sweep builds only the points' configs, so nothing is allocated.
    cfg = small_cfg(runs=MAX_RUNS)
    values = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    records = 6 * 5 * MAX_RUNS
    message = f"sweep points x schemes x runs must be in [1, {MAX_SWEEP_RECORDS}], got {records}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sim.check_sweep(cfg, SCHEMES, "deadline", values)
    sim.check_sweep(cfg, SCHEMES, "deadline", values[:5])  # 5 x 5 x MAX_RUNS, 1.2 GB, fits


def test_wiffler_window_beyond_the_path_keeps_every_encounter():
    # a window past C's ssize_t used to end the walk in an OverflowError
    cfg = small_cfg(runs=6, mu_cellular_mbps=10.0, mu_wifi_mbps=4.0)
    values = (1.0, 3.0)  # 18 slots at the longest
    csv = [
        run_experiment(dataclasses.replace(cfg, wiffler_window=w), ("wiffler",), "deadline", values)
        .to_csv_text()
        for w in (10**20, 18)
    ]
    assert csv[0] == csv[1]


def test_sweep_holds_each_episodes_totals_about_once():
    # Six float64 totals are 48 bytes per episode.  A tuple per episode in a
    # dict per (run, point), packed again per (point, scheme), peaked at
    # about 270 bytes per episode on this sweep.
    schemes = ("no-offload", "otso", "wiffler")
    run_experiment(ScenarioConfig(runs=2), schemes)  # first-use imports and caches
    cfg = ScenarioConfig(runs=500)
    tracemalloc.start()
    try:
        res = run_experiment(cfg, schemes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    episodes = cfg.runs * len(res.sweep_values) * len(schemes)
    assert episodes == 7500
    assert peak < 160 * episodes


# ---------------------------------------------------------------------------
# Walk rows: the compact rows ``sample_trajectory`` bisects must give the
# paths that bisecting whole cumulative rows gives.
# ---------------------------------------------------------------------------


class _Draws:
    """A generator stand-in whose ``random`` returns the given draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == len(self.draws)
        return np.array(self.draws)


def _edge_draws(cum_row):
    """0, every cumulative sum and the float just below it, the largest
    uniform draw and 1: where bisecting the row changes its answer."""
    draws = {0.0, 1.0 - 2.0**-53, 1.0}
    for c in set(cum_row.tolist()):
        draws |= {c, float(np.nextafter(c, 0.0))}
    return sorted(draws)


def _assert_walks_match(model):
    L = model.num_locations
    pen = QuadraticPenalty(1.0)
    for seed in range(3):
        spec = ProblemSpec(0.0, 150, 1.0, pen, initial_location=seed % L + 1)
        got = sample_trajectory(model, spec, np.random.default_rng(seed))
        assert got == sample_trajectory_full_rows(model, spec, np.random.default_rng(seed))
    cum = np.cumsum(model.mobility, axis=1)
    for l in range(1, L + 1):
        spec = ProblemSpec(0.0, 2, 1.0, pen, initial_location=l)
        for u in _edge_draws(cum[l - 1]):
            got = sample_trajectory(model, spec, _Draws([u]))
            assert got == sample_trajectory_full_rows(model, spec, _Draws([u])), (l, u)


def _model_on(mobility):
    L = mobility.shape[0]
    return NetworkModel(L, frozenset(), mobility, np.zeros((L, 3)), np.zeros((L, 3)))


@pytest.mark.parametrize("p_stay", [0.0, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (2, 1), (1, 5), (3, 3), (2, 7), (10, 10)])
def test_walk_rows_give_the_full_row_paths(rows, cols, p_stay):
    shared = sim._shared_grid_mobility(rows, cols, p_stay)
    _assert_walks_match(_model_on(shared))
    # built once per shared grid; a caller's own copy gets the same rows per call
    assert model_module.walk_rows(shared) is model_module.walk_rows(shared)
    own = build_grid_mobility(rows, cols, p_stay)
    assert model_module.walk_rows(own) == model_module.walk_rows(shared)


def test_walk_rows_send_a_draw_past_the_row_total_to_the_last_location():
    # rows summing to 1 - 4e-10, within the model's tolerance: a draw at or
    # above that total maps to location L, not to the last nonzero column
    short = 1.0 - 4e-10
    P = np.array([[0.5, short - 0.5, 0.0], [short, 0.0, 0.0], [0.25, 0.25, 0.5]])
    model = _model_on(P)
    _assert_walks_match(model)
    spec = ProblemSpec(0.0, 2, 1.0, QuadraticPenalty(1.0), initial_location=2)
    assert sample_trajectory(model, spec, _Draws([short])) == [2, 3]


def test_sampling_a_run_on_a_30x30_grid_allocates_little():
    # Rebuilding the L x L cumulative rows as lists for every run peaked at
    # 32.5 MB per run on this grid.
    cfg = ScenarioConfig(grid_rows=30, grid_cols=30, runs=4)
    streams = list(run_streams(cfg.seed, range(cfg.runs)))
    inst_rng, traj_rng = streams[0]
    sample_trajectory(*sample_instance(cfg, inst_rng), traj_rng)  # the grid's shared tables
    for inst_rng, traj_rng in streams[1:]:
        tracemalloc.start()
        try:
            model, spec = sample_instance(cfg, inst_rng)
            sample_trajectory(model, spec, traj_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


def test_sweep_builds_and_checks_each_grid_once(monkeypatch):
    calls = {"build": 0, "check": 0, "walk": 0}

    def counted(name, module, attr, counts=lambda *args: True):
        fn = getattr(module, attr)

        def wrapper(*args):
            calls[name] += counts(*args)
            return fn(*args)

        monkeypatch.setattr(module, attr, wrapper)

    counted("build", sim, "build_grid_mobility")
    # the mobility rule's entries check: prices and rates are checked per run
    counted("check", model_module, "check_array", lambda value, name, *shape: name == "mobility")
    counted("walk", model_module, "_walk_rows")
    sim._shared_grid_mobility.cache_clear()
    # two grids; every run builds a NetworkModel, and its frontier plan a
    # means network and a MonotoneModel, on its grid's matrix
    run_experiment(small_cfg(runs=3), SCHEMES, "p_stay", (0.3, 0.6))
    assert calls == {"build": 2, "check": 2, "walk": 2}


# ---------------------------------------------------------------------------
# Per-run streams: numpy's SeedSequence is the reference for the hash that
# ``seed_states`` vectorizes and for the generators ``run_streams`` builds.
# ---------------------------------------------------------------------------


def stream_keys(j):
    return [(j, 0, i) for i in range(4)] + [(j, 1)]


# seeds of up to two uint32 words, and of five to nine: numpy mixes the
# words past its pool size of four into the pool, four hash steps each
seeds = st.integers(0, 2**63 - 1) | st.integers(2**128, 2**256)
# run indices of one and of two uint32 words, mixed in one block
run_index_lists = st.lists(
    st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), min_size=1, max_size=6
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seeds, run_index_lists)
@example(0, [0])
@example(2**32, [2**32 - 1, 2**32, 7])
@example(2**64 + 1, [2**64 - 1, 0, 2**40 + 3])
@example(2**130 + 7, [3, 2**70])  # seed words past the pool size
@example(2**256, [2**32 - 1, 2**32])
def test_seed_states_match_numpy_seed_sequence(seed, runs):
    states = seed_states(seed, runs)
    assert states.shape == (len(runs), 5, 4) and states.dtype == np.uint64
    for j, row in zip(runs, states):
        for key, state in zip(stream_keys(j), row):
            ref = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert state.tolist() == ref.tolist(), key


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(seeds, st.integers(0, 2**40), st.sampled_from([1, 4]))
@example(0, 0, 1)
@example(2**32, 2**32 - 2, 4)
@example(2**64 + 1, 12, 4)
@example(2**256, 2**32 - 2, 4)
def test_run_streams_match_numpy_generators(seed, first, size):
    runs = list(range(first, first + size))
    streams = list(run_streams(seed, runs))
    assert len(streams) == size
    for j, (inst, traj) in zip(runs, streams):
        ref_inst = np.random.SeedSequence(seed, spawn_key=(j, 0)).spawn(4)
        ref_traj = np.random.SeedSequence(seed, spawn_key=(j, 1))
        assert [g.bit_generator.state for g in inst] == [
            np.random.default_rng(s).bit_generator.state for s in ref_inst
        ]
        assert traj.bit_generator.state == np.random.default_rng(ref_traj).bit_generator.state


def test_streams_reject_what_they_cannot_reproduce():
    for seed, runs in ((-1, [0]), (0, [0, -1])):
        with pytest.raises(ValueError) as exc:
            seed_states(seed, runs)
        assert str(exc.value) == "seeds and run indices must be >= 0, got -1"
    inst, _ = next(run_streams(5, [0]))
    for n_words, dtype in ((8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError) as exc:
            inst[0].bit_generator.seed_seq.generate_state(n_words, dtype)
        assert str(exc.value) == "only the 4-word uint64 state of PCG64 is precomputed"


# ---------------------------------------------------------------------------
# Reference Monte-Carlo path: scalar rate and coverage draws, a trajectory
# from ``np.searchsorted``, and a walk on float sizes through the model
# primitives (``payment``, ``next_file_size``, ``admissible_actions``) with
# agents built on the public decision rules.  The simulator must agree with
# it field for field.
# ---------------------------------------------------------------------------


def reference_sample_instance(cfg, streams):
    g_wifi, g_cell, g_wrate, g_init = streams
    L = cfg.num_locations
    wifi = frozenset(l + 1 for l in range(L) if g_wifi.random() < cfg.wifi_prob)
    mu_c = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    mu_w = cfg.rate_mbit_per_slot(cfg.mu_wifi_mbps)
    std = cfg.rate_mbit_per_slot(cfg.rate_std_mbps)
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = [truncated_normal(g_cell, mu_c, std) for _ in range(L)]
    wifi_draws = [truncated_normal(g_wrate, mu_w, std) for _ in range(L)]
    for l in wifi:
        rate[l - 1, Action.WIFI] = wifi_draws[l - 1]
    price[:, Action.CELLULAR] = cfg.price_per_mbit
    model = NetworkModel(
        num_locations=L,
        wifi_locations=wifi,
        mobility=build_grid_mobility(cfg.grid_rows, cfg.grid_cols, cfg.p_stay),
        price=price,
        rate=rate,
    )
    spec = ProblemSpec(
        file_size=cfg.file_mbit,
        horizon=cfg.horizon,
        grid_step=cfg.grid_step_mbit,
        penalty=cfg.make_penalty(),
        initial_location=int(g_init.integers(1, L + 1)),
    )
    return model, spec


class _RefPolicyAgent:
    def __init__(self, policy):
        self._policy = policy

    def decide(self, k, l, t):
        return self._policy.action(t, k, l)


class _RefThresholdAgent:
    def __init__(self, tp):
        self._tp = tp

    def decide(self, k, l, t):
        return threshold_decide(self._tp, State(k, l), t)


class _RefNoOffloadAgent:
    def decide(self, k, l, t):
        return no_offload_decide(State(k, l))


class _RefOtsoAgent:
    def __init__(self, model):
        self._model = model

    def decide(self, k, l, t):
        return otso_decide(self._model, State(k, l))


class _RefWifflerAgent:
    def __init__(self, model, horizon, theta, window):
        self._model = model
        self._horizon = horizon
        self._ws = WifflerState(theta=theta, window=window)

    def decide(self, k, l, t):
        wiffler_observe(self._ws, self._model, l, t)
        return wiffler_decide(self._ws, self._model, State(k, l), t, self._horizon)


def reference_run_episode(agent, model, spec, trajectory):
    k = spec.file_size
    pay = 0.0
    counts = {Action.IDLE: 0, Action.CELLULAR: 0, Action.WIFI: 0}
    trace = []
    for t in range(1, spec.horizon + 1):
        if k <= 0:
            break
        l = trajectory[t - 1]
        a = Action(agent.decide(k, l, t))
        if a not in admissible_actions(model, l):
            raise SchemeError(f"{a.name} at location {l}")
        trace.append(l)
        counts[a] += 1
        if a is not Action.IDLE:
            pay += payment(model, spec, State(k, l), a)
            k = next_file_size(spec, k, model.rate_of(l, a))
    pen = float(spec.penalty(k)) if k > 0 else 0.0
    return EpisodeResult(
        completed=k <= 0,
        total_payment=pay,
        penalty_paid=pen,
        total_cost=pay + pen,
        slots_cellular=counts[Action.CELLULAR],
        slots_wifi=counts[Action.WIFI],
        slots_waiting=counts[Action.IDLE],
        trajectory=tuple(trace),
    )


def _run_rngs(cfg, j):
    """Run ``j``'s four instance streams and its trajectory stream, from
    numpy's ``SeedSequence``."""
    return (
        np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(j, 0))).spawn(4),
        np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(j, 1))),
    )


# Slow cellular (50-60 Mbit per slot against a 1000 Mbit file) leaves
# transfers unfinished and makes the Wiffler rule wait; the 10 +- 50 Mbit
# Wi-Fi draws of "slow-links" reject about four draws in ten.
WALK_CONFIGS = {
    "default": {},
    "no-wifi": dict(wifi_prob=0.0, deadline_minutes=2.0),
    "all-wifi": dict(wifi_prob=1.0, deadline_minutes=3.0),
    "fixed-rates": dict(rate_std_mbps=0.0, deadline_minutes=4.0),
    "empty-file": dict(file_mbytes=0.0),
    "step-penalty": dict(
        penalty="step", grid_rows=3, mu_cellular_mbps=6.0, deadline_minutes=2.0
    ),
    "wifi-faster": dict(mu_wifi_mbps=120.0, deadline_minutes=2.0),
    "slow-links": dict(
        mu_cellular_mbps=5.0,
        mu_wifi_mbps=1.0,
        rate_std_mbps=5.0,
        grid_rows=3,
        grid_cols=3,
        deadline_minutes=3.0,
        wiffler_theta=0.5,
        wiffler_window=2,
    ),
    "wiffler-window-1": dict(
        mu_cellular_mbps=5.0,
        mu_wifi_mbps=8.0,
        p_stay=0.3,
        grid_rows=3,
        deadline_minutes=3.0,
        wiffler_theta=0.4,
        wiffler_window=1,
    ),
}


@pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
def test_walk_matches_reference(name):
    cfg = small_cfg(**WALK_CONFIGS[name])
    # the frontier planner needs a convex penalty
    schemes = [s for s in SCHEMES if s != "monotone" or cfg.penalty != "step"]
    for j in range(6):
        inst_rng, traj_rng = _run_rngs(cfg, j)
        model, spec = sample_instance(cfg, inst_rng)
        traj = sample_trajectory(model, spec, traj_rng)
        reference = {
            "general": lambda: _RefPolicyAgent(dp.solve(model, spec)[0]),
            "monotone": lambda: _RefThresholdAgent(frontier_plan(cfg, model, spec)),
            "no-offload": _RefNoOffloadAgent,
            "otso": lambda: _RefOtsoAgent(model),
            "wiffler": lambda: _RefWifflerAgent(
                model, spec.horizon, cfg.wiffler_theta, cfg.wiffler_window
            ),
        }
        for scheme in schemes:
            got = run_episode(make_agent(scheme, model, spec, cfg, traj), spec=spec)
            want = reference_run_episode(reference[scheme](), model, spec, traj)
            assert got == want, (name, j, scheme)
            assert repr(got) == repr(want), (name, j, scheme)
            slots = got.slots_cellular + got.slots_wifi + got.slots_waiting
            assert got.trajectory == tuple(traj[:slots]), (name, j, scheme)


@pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
def test_planned_schemes_read_their_planners_tables(name):
    # general reads dp.solve's table; monotone's frontier rule reads as the
    # table ThresholdPolicy.to_policy writes out
    cfg = small_cfg(**WALK_CONFIGS[name])
    schemes = SCHEMES[: 1 if cfg.penalty == "step" else 2]
    for j in range(3):
        inst_rng, traj_rng = _run_rngs(cfg, j)
        model, spec = sample_instance(cfg, inst_rng)
        traj = sample_trajectory(model, spec, traj_rng)
        want = [dp.solve(model, spec)[0].actions]
        if "monotone" in schemes:
            want.append(frontier_plan(cfg, model, spec).to_policy().actions)
        for scheme, x, table in zip(schemes, plan_run(schemes, model, spec, cfg, traj), want):
            assert x.actions is None and x.run.spec.horizon == spec.horizon
            assert np.array_equal(table_cells(x, spec), table[:, :, 1:]), (name, j, scheme)


# A config's own deadline and points one to four slots long: location-only
# walks that finish before a point's horizon, exactly at it, and after it.
SHORT_DEADLINES = tuple(k / 6 for k in (4, 3, 2, 1))


@pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
def test_sweep_records_equal_each_points_own_walks(monkeypatch, name):
    cfg = small_cfg(**WALK_CONFIGS[name])
    schemes = tuple(s for s in SCHEMES if s != "monotone" or cfg.penalty != "step")
    deadlines = (cfg.deadline_minutes, *SHORT_DEADLINES)
    monkeypatch.setattr(sim, "available_cpus", lambda: 2)
    parallel = run_experiment(cfg, schemes, "deadline", deadlines, jobs=2)
    walks = []
    walk = sim.run_episode
    monkeypatch.setattr(sim, "run_episode", lambda *a, **k: walks.append(a) or walk(*a, **k))
    res = run_experiment(cfg, schemes, "deadline", deadlines)
    assert res.to_csv_text() == parallel.to_csv_text()

    predicted = 0
    seen = set()
    for j in range(cfg.runs):
        longest = {}  # scheme -> its walk at the first point, the longest
        for d in deadlines:
            point = dataclasses.replace(cfg, deadline_minutes=d)
            inst_rng, traj_rng = _run_rngs(point, j)
            model, spec = sample_instance(point, inst_rng)
            traj = sample_trajectory(model, spec, traj_rng)
            for scheme, x in zip(schemes, plan_run(schemes, model, spec, point, traj)):
                ep = walk(x, spec=spec)
                want = tuple(map(float, ep[:6]))
                got = tuple(float(c[j]) for c in dataclasses.astuple(res.samples[(d, scheme)]))
                assert got == want, (d, j, scheme)
                top = longest.setdefault(scheme, ep)
                if scheme in ("no-offload", "otso") and top is not ep:
                    if top.completed and len(top.trajectory) <= spec.horizon:
                        seen.add(f"{scheme} carried")
                        if len(ep.trajectory) == spec.horizon:
                            seen.add(f"{scheme} finished at the horizon")
                        continue
                    seen.add(f"{scheme} penalised" if ep.penalty_paid > 0 else f"{scheme} walked")
                predicted += 1
    assert len(walks) == predicted
    if name == "default":  # both branches of the rule, and a walk ending at a point's horizon
        kinds = ("carried", "finished at the horizon", "penalised")
        assert seen == {f"{s} {k}" for s in ("no-offload", "otso") for k in kinds}


# "rejecting" draws Wi-Fi rates at 10 +- 50 Mbit per slot; "zero-mean"
# rejects half of the cellular draws as well.
SAMPLER_CONFIGS = {
    "default": {},
    "no-wifi": dict(wifi_prob=0.0),
    "fixed-rates": dict(wifi_prob=1.0, rate_std_mbps=0.0),
    "rejecting": dict(mu_wifi_mbps=1.0, rate_std_mbps=5.0, grid_rows=4, grid_cols=4),
    "zero-mean": dict(mu_cellular_mbps=0.0, mu_wifi_mbps=1.0, rate_std_mbps=5.0, p_stay=0.1),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_CONFIGS))
def test_samplers_match_scalar_reference(name):
    cfg = small_cfg(**SAMPLER_CONFIGS[name])
    for j in range(40):
        inst_rng, traj_rng = _run_rngs(cfg, j)
        model, spec = sample_instance(cfg, inst_rng)
        inst_rng, _ = _run_rngs(cfg, j)
        ref_model, ref_spec = reference_sample_instance(cfg, inst_rng)
        assert model.wifi_locations == ref_model.wifi_locations
        for field in ("rate", "price", "mobility"):
            assert getattr(model, field).tobytes() == getattr(ref_model, field).tobytes()
        assert spec == ref_spec
        _, ref_traj_rng = _run_rngs(cfg, j)
        assert sample_trajectory(model, spec, traj_rng) == sample_trajectory_full_rows(
            model, spec, ref_traj_rng
        )


def test_rejection_heavy_draws_are_exercised():
    # the "rejecting" sampler case does reject draws, many of them
    cfg = small_cfg(**SAMPLER_CONFIGS["rejecting"])
    rejected = 0
    for j in range(40):
        g_wrate = _run_rngs(cfg, j)[0][2]
        rejected += int((g_wrate.normal(10.0, 50.0, size=16) < 0).sum())
    assert rejected > 100
