import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offloadsim import dp
from offloadsim.errors import OracleSizeError
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    State,
)
from offloadsim.oracle import MAX_GRID_POINTS, expectimax

from instances import general_instances, random_general_instance


def tiny_model(L=1, wifi=frozenset(), rate_cell=1.0, price_cell=2.0):
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = rate_cell
    price[:, Action.CELLULAR] = price_cell
    for l in wifi:
        rate[l - 1, Action.WIFI] = 1.0
    mobility = np.full((L, L), 1.0 / L)
    return NetworkModel(L, wifi, mobility, price, rate)


def test_one_step_closed_form():
    model = tiny_model(rate_cell=1.0, price_cell=2.0)
    pen = QuadraticPenalty(3.0)
    spec = ProblemSpec(1.0, 1, 1.0, pen)
    res = expectimax(model, spec, State(1.0, 1), 1)
    assert res.optimal_value == pytest.approx(min(pen(1.0), 2.0 + pen(0.0)))


def test_empty_file_idles():
    model = tiny_model()
    spec = ProblemSpec(0.0, 2, 1.0, QuadraticPenalty(3.0))
    res = expectimax(model, spec, State(0.0, 1), 1)
    assert res.optimal_value == 0.0
    assert Action.IDLE in res.optimal_action_at_root


def test_size_guards():
    big = tiny_model(L=5)
    spec = ProblemSpec(1.0, 1, 1.0, QuadraticPenalty(1.0))
    with pytest.raises(OracleSizeError, match="locations"):
        expectimax(big, spec, State(1.0, 1), 1)
    model = tiny_model()
    with pytest.raises(OracleSizeError, match="horizon"):
        expectimax(model, ProblemSpec(1.0, 7, 1.0, QuadraticPenalty(1.0)), State(1.0, 1), 1)
    with pytest.raises(OracleSizeError, match="grid"):
        expectimax(model, ProblemSpec(7.0, 2, 1.0, QuadraticPenalty(1.0)), State(1.0, 1), 1)


def test_argmin_set_contains_all_ties():
    # zero prices and penalty: every action is equally free
    model = tiny_model(price_cell=0.0)
    spec = ProblemSpec(2.0, 2, 1.0, QuadraticPenalty(0.0))
    res = expectimax(model, spec, State(2.0, 1), 1)
    assert res.optimal_value == 0.0
    assert res.optimal_action_at_root == frozenset({Action.IDLE, Action.CELLULAR})


def test_intermediate_epoch_start():
    rng = np.random.default_rng(9)
    model, spec = random_general_instance(rng)
    t = spec.horizon  # last decision epoch
    res = expectimax(model, spec, State(spec.grid_step * spec.grid_points, 1), t)
    assert res.optimal_value >= 0.0


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(general_instances(max_steps=MAX_GRID_POINTS), st.booleans())
def test_exact_planner_matches_oracle(instance, flat_payment):
    # every start location of a generated tiny instance is a root
    model, spec = instance
    policy, values = dp.solve(model, spec, flat_payment=flat_payment)
    k = spec.file_size
    for l in range(1, model.num_locations + 1):
        res = expectimax(model, spec, State(k, l), 1, flat_payment=flat_payment)
        assert values.value(1, k, l) == pytest.approx(res.optimal_value, rel=1e-12, abs=1e-12)
        assert policy.action(1, k, l) in res.optimal_action_at_root
