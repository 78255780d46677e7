import csv

import numpy as np
import pytest

from offloadsim.dp import solve
from offloadsim.errors import DomainError, ResourceLimitError
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    State,
    admissible_actions,
)
from offloadsim.oracle import expectimax
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import random_general_instance
from reference import q_value


def one_location_model(rate_cell=1.0, price_cell=2.5):
    rate = np.zeros((1, 3))
    price = np.zeros((1, 3))
    rate[0, Action.CELLULAR] = rate_cell
    price[0, Action.CELLULAR] = price_cell
    return NetworkModel(1, frozenset(), np.array([[1.0]]), price, rate)


def test_q_value_idle_at_last_slot_is_terminal_penalty():
    rng = np.random.default_rng(0)
    model, spec = random_general_instance(rng)
    _, vt = solve(model, spec)
    terminal = vt.values[spec.horizon]
    for l in range(1, model.num_locations + 1):
        for n in range(spec.grid_points + 1):
            k = n * spec.grid_step
            got = q_value(model, spec, terminal, State(k, l), Action.IDLE)
            assert got == pytest.approx(spec.penalty(k), rel=1e-12)


def test_q_value_one_step_deterministic():
    model = one_location_model()
    spec = ProblemSpec(1.0, 1, 1.0, QuadraticPenalty(50.0))
    _, vt = solve(model, spec)
    c = 1.0 * 2.5
    got = q_value(model, spec, vt.values[1], State(1.0, 1), Action.CELLULAR)
    assert got == pytest.approx(c)
    # sending beats eating the h(1) = 50 penalty
    assert vt.value(1, 1.0, 1) == pytest.approx(c)


def test_solve_two_location_two_slot_matches_brute_force():
    rate = np.zeros((2, 3))
    price = np.zeros((2, 3))
    rate[:, Action.CELLULAR] = 1.0
    rate[1, Action.WIFI] = 1.0
    price[:, Action.CELLULAR] = 1.0
    model = NetworkModel(
        2, frozenset({2}), np.array([[0.3, 0.7], [0.6, 0.4]]), price, rate
    )
    spec = ProblemSpec(2.0, 2, 1.0, QuadraticPenalty(5.0), initial_location=1)
    _, vt = solve(model, spec)
    res = expectimax(model, spec, State(2.0, 1), 1)
    assert vt.value(1, 2.0, 1) == pytest.approx(res.optimal_value, rel=1e-12)


def test_solve_empty_file_idles_at_zero_cost():
    rng = np.random.default_rng(1)
    model, spec_src = random_general_instance(rng)
    spec = ProblemSpec(0.0, spec_src.horizon, spec_src.grid_step, spec_src.penalty)
    policy, vt = solve(model, spec)
    assert (policy.actions == int(Action.IDLE)).all()
    assert (vt.values == 0.0).all()


def test_policy_idles_at_zero_remaining():
    rng = np.random.default_rng(2)
    for _ in range(10):
        model, spec = random_general_instance(rng)
        policy, _ = solve(model, spec)
        assert (policy.actions[:, :, 0] == int(Action.IDLE)).all()


def test_solve_policy_is_argmin_within_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model, spec = random_general_instance(rng)
        policy, vt = solve(model, spec)
        for _ in range(20):
            t = int(rng.integers(1, spec.horizon + 1))
            l = int(rng.integers(1, model.num_locations + 1))
            n = int(rng.integers(0, spec.grid_points + 1))
            s = State(n * spec.grid_step, l)
            values = {
                a: q_value(model, spec, vt.values[t], s, a)
                for a in admissible_actions(model, l)
            }
            vmin = min(values.values())
            chosen = policy.action(t, s.k, l)
            if n == 0:
                assert chosen is Action.IDLE
            else:
                assert values[chosen] <= vmin + 1e-9 * max(1.0, abs(vmin))
            assert vt.value(t, s.k, l) == pytest.approx(vmin, rel=1e-12)


def test_flat_payment_cellular_cost_ignores_remainder():
    model = one_location_model(rate_cell=10.0, price_cell=0.5)
    spec = ProblemSpec(4.0, 1, 1.0, QuadraticPenalty(100.0))
    terminal = np.zeros((1, 5))
    exact = q_value(model, spec, terminal, State(2.0, 1), Action.CELLULAR)
    flat = q_value(model, spec, terminal, State(2.0, 1), Action.CELLULAR, flat_payment=True)
    assert exact == pytest.approx(2.0 * 0.5)
    assert flat == pytest.approx(10.0 * 0.5)


def test_value_table_accessors_validate():
    rng = np.random.default_rng(4)
    model, spec = random_general_instance(rng)
    policy, vt = solve(model, spec)
    with pytest.raises(DomainError):
        vt.value(0, 0.0, 1)
    with pytest.raises(DomainError):
        vt.value(1, 0.5 * spec.grid_step, 1)
    with pytest.raises(DomainError):
        policy.action(spec.horizon + 1, 0.0, 1)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    model, spec = random_general_instance(rng)
    policy, vt = solve(model, spec)

    ppath = tmp_path / "policy.csv"
    vpath = tmp_path / "value.csv"
    policy.write_csv(ppath)
    vt.write_csv(vpath)

    with open(ppath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == spec.horizon * model.num_locations * (spec.grid_points + 1)
    for row in rows[:50]:
        assert policy.action(int(row["t"]), float(row["k"]), int(row["l"])) == int(
            row["action"]
        )

    with open(vpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == (spec.horizon + 1) * model.num_locations * (spec.grid_points + 1)
    for row in rows[:50]:
        assert vt.value(int(row["t"]), float(row["k"]), int(row["l"])) == float(
            row["value"]
        )


def test_lattice_budget():
    model = one_location_model()
    spec = ProblemSpec(1000.0, 100, 1.0, QuadraticPenalty(1.0))
    with pytest.raises(ResourceLimitError, match="cells"):
        solve(model, spec, max_cells=1000)


def test_frontier_planner_lattice_budget():
    spec = ProblemSpec(1000.0, 100, 1.0, QuadraticPenalty(1.0))
    mm = MonotoneModel(1, frozenset(), np.array([[1.0]]), 1.0, 0.0, 2.5, spec.penalty)
    with pytest.raises(ResourceLimitError, match="cells"):
        solve_monotone(mm, spec, max_cells=1000)
