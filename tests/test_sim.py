import dataclasses

import numpy as np
import pytest

from offloadsim import dp, sim
from offloadsim.config import ScenarioConfig
from offloadsim.errors import ConfigError, SchemeError
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    State,
    admissible_actions,
    next_file_size,
    payment,
)
from offloadsim.sim import (
    SCHEMES,
    EpisodeResult,
    build_grid_mobility,
    make_agent,
    means_model,
    run_episode,
    run_experiment,
    sample_instance,
    sample_trajectory,
    worker_count,
)
from offloadsim.threshold import LocationMode, decide as threshold_decide, solve_monotone

from reference import (
    WifflerState,
    no_offload_decide,
    otso_decide,
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
    model, spec = sample_instance(cfg, np.random.default_rng(1))
    assert model.wifi_locations == frozenset()

    cfg = small_cfg(wifi_prob=1.0, rate_std_mbps=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(1))
    assert model.wifi_locations == frozenset({1, 2, 3, 4})
    # 90 Mbps over a 10 s slot = 900 Mbit; 20 Mbps = 200 Mbit
    assert model.rate_of(1, Action.CELLULAR) == pytest.approx(900.0)
    assert model.rate_of(1, Action.WIFI) == pytest.approx(200.0)
    assert model.price_of(1, Action.CELLULAR) == pytest.approx(6.0 / 8000.0)
    assert spec.file_size == pytest.approx(1000.0)
    assert spec.horizon == 6


def test_sample_instance_deterministic_per_rng_seed():
    cfg = small_cfg()
    m1, s1 = sample_instance(cfg, np.random.default_rng(7))
    m2, s2 = sample_instance(cfg, np.random.default_rng(7))
    assert m1.wifi_locations == m2.wifi_locations
    assert np.array_equal(m1.rate, m2.rate)
    assert s1.initial_location == s2.initial_location


def test_trajectory_starts_at_initial_location():
    cfg = small_cfg()
    model, spec = sample_instance(cfg, np.random.default_rng(3))
    traj = sample_trajectory(model, spec, np.random.default_rng(4))
    assert len(traj) == spec.horizon
    assert traj[0] == spec.initial_location
    assert all(1 <= l <= model.num_locations for l in traj)


def test_run_episode_empty_file():
    cfg = small_cfg(file_mbytes=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(5))
    agent = make_agent("no-offload", model, spec, cfg)
    ep = run_episode(agent, model, spec, rng=np.random.default_rng(6))
    assert ep.completed
    assert ep.total_cost == 0.0
    assert ep.trajectory == ()


def test_no_offload_closed_form_payment():
    # deterministic rates on a single cell: payment is exactly size * price
    cfg = small_cfg(grid_rows=1, grid_cols=1, rate_std_mbps=0.0, file_mbytes=625.0)
    model, spec = sample_instance(cfg, np.random.default_rng(8))
    agent = make_agent("no-offload", model, spec, cfg)
    ep = run_episode(agent, model, spec, rng=np.random.default_rng(9))
    assert ep.completed
    assert ep.total_payment == pytest.approx(5000.0 * 6.0 / 8000.0, rel=1e-12)
    assert ep.penalty_paid == 0.0
    assert ep.slots_cellular == 6  # 5000 Mbit at 900 Mbit per slot
    assert ep.slots_waiting == 0


def test_episode_counts_and_penalty_flag():
    cfg = small_cfg(runs=20)
    rng = np.random.default_rng(10)
    for scheme in SCHEMES:
        model, spec = sample_instance(cfg, np.random.default_rng(11))
        traj = sample_trajectory(model, spec, np.random.default_rng(12))
        agent = make_agent(scheme, model, spec, cfg)
        ep = run_episode(agent, model, spec, trajectory=traj)
        assert ep.slots_cellular + ep.slots_wifi + ep.slots_waiting <= spec.horizon
        assert ep.total_cost == pytest.approx(ep.total_payment + ep.penalty_paid)
        assert ep.completed == (ep.penalty_paid == 0.0)


def test_episode_rejects_inadmissible_scheme():
    # decision data that sends over Wi-Fi where there is none
    cfg = small_cfg(wifi_prob=0.0)
    model, spec = sample_instance(cfg, np.random.default_rng(13))
    otso = make_agent("otso", model, spec, cfg)
    bad = otso._replace(actions=[int(Action.WIFI)] * model.num_locations)
    with pytest.raises(SchemeError):
        run_episode(bad, model, spec, rng=np.random.default_rng(14))


def test_episode_rejects_decisions_for_another_instance():
    cfg = small_cfg()
    model, spec = sample_instance(cfg, np.random.default_rng(13))
    otso = make_agent("otso", model, spec, cfg)
    other_model = dataclasses.replace(model, rate=model.rate * 0.5)
    with pytest.raises(ValueError, match="another model"):
        run_episode(otso, other_model, spec, rng=np.random.default_rng(14))
    coarser = dataclasses.replace(spec, grid_step=20.0)
    with pytest.raises(ValueError, match="size grid"):
        run_episode(otso, model, coarser, rng=np.random.default_rng(14))


def test_common_random_numbers_across_schemes():
    cfg = small_cfg(runs=4)
    res = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,))
    # same environments: both schemes saw identical location paths, which
    # shows up as identical run counts and, for run 0, identical traces
    model, spec = sample_instance(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)))
    )
    traj = sample_trajectory(
        model, spec, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    )
    a = run_episode(make_agent("no-offload", model, spec, cfg), model, spec, trajectory=traj)
    b = run_episode(make_agent("otso", model, spec, cfg), model, spec, trajectory=traj)
    assert [x[1] for x in a.trajectory] == traj[: len(a.trajectory)]
    assert [x[1] for x in b.trajectory] == traj[: len(b.trajectory)]


def test_experiment_deterministic_output():
    cfg = small_cfg(runs=6)
    r1 = run_experiment(cfg, ("otso", "wiffler"), "deadline", (1.0, 2.0))
    r2 = run_experiment(cfg, ("otso", "wiffler"), "deadline", (1.0, 2.0))
    assert r1.to_csv_text() == r2.to_csv_text()


def test_experiment_jobs_match_serial():
    cfg = small_cfg(runs=6)
    serial = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,))
    parallel = run_experiment(cfg, ("no-offload", "otso"), "deadline", (1.0,), jobs=2)
    assert serial.to_csv_text() == parallel.to_csv_text()
    # a deadline sweep shares each run's plans across its points
    cfg = small_cfg(runs=5, mu_cellular_mbps=10.0, mu_wifi_mbps=4.0)
    schemes = ("general", "monotone", "wiffler")
    serial = run_experiment(cfg, schemes, "deadline", (2.0, 1.0))
    parallel = run_experiment(cfg, schemes, "deadline", (2.0, 1.0), jobs=2)
    assert serial.to_csv_text() == parallel.to_csv_text()


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
    # looks them up and reads the spec from run_episode's third argument.
    episodes, solves = [], {"general": 0, "monotone": 0}
    walk, exact, frontier = sim.run_episode, dp.solve, sim.solve_monotone

    def counted_walk(*args, **kwargs):
        ep = walk(*args, **kwargs)
        episodes.append((args, ep))
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
    cfg = small_cfg(runs=3, mu_cellular_mbps=10.0, mu_wifi_mbps=4.0)
    run_experiment(cfg, SCHEMES, "deadline", (2.0, 1.0))

    assert solves == {"general": 3, "monotone": 3}
    expected = []  # run-major: per run, per point, per scheme
    for j in range(cfg.runs):
        _, spec = sample_instance(cfg.with_sweep_value("deadline", 2.0), _run_rngs(cfg, j)[0])
        for horizon in (12, 6):
            expected += [dataclasses.replace(spec, horizon=horizon)] * len(SCHEMES)
    assert len(episodes) == len(expected) == 3 * 2 * len(SCHEMES)
    for (args, ep), spec in zip(episodes, expected):
        assert len(args) == 3 and args[2] == spec
        assert isinstance(ep, EpisodeResult)


def test_single_run_aggregate_equals_episode():
    cfg = small_cfg(runs=1)
    res = run_experiment(cfg, ("no-offload",), "deadline", (1.0,))
    m = res.metrics[(1.0, "no-offload")]
    model, spec = sample_instance(
        cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)))
    )
    traj = sample_trajectory(
        model, spec, np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    )
    ep = run_episode(make_agent("no-offload", model, spec, cfg), model, spec, trajectory=traj)
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
    import json

    data = json.loads(out_json.read_text())
    assert data["sweep_axis"] == "deadline"
    assert data["config"]["runs"] == 3
    assert data["rows"][0]["scheme"] == "otso"
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("sweep_value,scheme,runs,completion_prob")


def test_monotone_agent_plans_from_mean_rates():
    # the threshold agent must not depend on the sampled per-location rates
    cfg = small_cfg(runs=1, rate_std_mbps=5.0)
    model, spec = sample_instance(cfg, np.random.default_rng(15))
    mm = means_model(cfg, model, spec)
    tp, _ = solve_monotone(mm, spec)
    assert tp.horizon == spec.horizon
    # planner input was built from configured means, not instance draws
    mu_c = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    assert mm.mu_cellular == mu_c == 900.0
    assert tp.grid_step == spec.grid_step
    agent = make_agent("monotone", model, spec, cfg)
    other = make_agent("monotone", dataclasses.replace(model, rate=model.rate * 0.5), spec, cfg)
    assert agent.frontier == other.frontier
    assert agent.actions == other.actions
    ep = run_episode(agent, model, spec, rng=np.random.default_rng(16))
    assert ep.total_cost >= 0.0


def test_frontier_rows_serve_every_deadline_from_one_plan():
    # Wi-Fi faster than cellular, so the rows that never switch are sliced too
    cfg = small_cfg(mu_cellular_mbps=10.0, mu_wifi_mbps=12.0, deadline_minutes=3.0)
    model, spec = sample_instance(cfg, _run_rngs(cfg, 1)[0])
    mm = means_model(cfg, model, spec)
    assert {mm.mode_of(l) for l in range(1, 5)} == {LocationMode.NO_WIFI, LocationMode.WIFI_FASTER}
    run = sim.run_tables(model, spec)
    rows = sim.frontier_rows(solve_monotone(mm, spec, values=False)[0])
    for offset in range(spec.horizon):
        tail = dataclasses.replace(spec, horizon=spec.horizon - offset)
        want = sim.frontier_rows(solve_monotone(mm, tail, values=False)[0]).decisions(run)
        assert rows.decisions(run, offset) == want, offset


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


# ---------------------------------------------------------------------------
# Reference Monte-Carlo path: scalar rate and coverage draws, a trajectory
# from ``np.searchsorted``, and a walk on float sizes through the model
# primitives (``payment``, ``next_file_size``, ``admissible_actions``) with
# agents built on the public decision rules.  The simulator must agree with
# it field for field.
# ---------------------------------------------------------------------------


def reference_sample_instance(cfg, rng):
    g_wifi, g_cell, g_wrate, g_init = rng.spawn(4)
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


def reference_sample_trajectory(model, spec, rng):
    locs = [spec.initial_location]
    if spec.horizon > 1:
        cum = np.cumsum(model.mobility, axis=1)
        l = spec.initial_location
        for u in rng.random(spec.horizon - 1):
            l = int(np.searchsorted(cum[l - 1], u, side="right")) + 1
            l = min(l, model.num_locations)
            locs.append(l)
    return locs


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
        trace.append((t, l, k, int(a)))
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
    return (
        np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(j, 0))),
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
            "monotone": lambda: _RefThresholdAgent(
                solve_monotone(means_model(cfg, model, spec), spec)[0]
            ),
            "no-offload": _RefNoOffloadAgent,
            "otso": lambda: _RefOtsoAgent(model),
            "wiffler": lambda: _RefWifflerAgent(
                model, spec.horizon, cfg.wiffler_theta, cfg.wiffler_window
            ),
        }
        for scheme in schemes:
            got = run_episode(make_agent(scheme, model, spec, cfg), model, spec, trajectory=traj)
            want = reference_run_episode(reference[scheme](), model, spec, traj)
            assert got == want, (name, j, scheme)
            assert repr(got) == repr(want), (name, j, scheme)


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
        assert sample_trajectory(model, spec, traj_rng) == reference_sample_trajectory(
            model, spec, ref_traj_rng
        )


def test_rejection_heavy_draws_are_exercised():
    # the "rejecting" sampler case does reject draws, many of them
    cfg = small_cfg(**SAMPLER_CONFIGS["rejecting"])
    rejected = 0
    for j in range(40):
        g_wrate = _run_rngs(cfg, j)[0].spawn(4)[2]
        rejected += int((g_wrate.normal(10.0, 50.0, size=16) < 0).sum())
    assert rejected > 100
