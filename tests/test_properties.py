import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from offloadsim.config import ScenarioConfig
from offloadsim.dp import ValueTable, solve
from offloadsim.model import Action, NetworkModel, ProblemSpec, QuadraticPenalty, State
from offloadsim.oracle import expectimax
from offloadsim.sim import sample_instance
from offloadsim.properties import (
    check_cross_difference,
    check_increment_monotone,
    check_oracle,
    check_single_switch,
    check_threshold_monotone,
    check_value_monotone_in_size,
    check_value_monotone_in_time,
    check_wifi_preference,
    oracle_config,
    run_verification,
)
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import (
    flatcost_instances,
    general_instances,
    monotone_view,
    random_flatcost_instance,
    random_general_instance,
    single_class_flatcost_instance,
)
from reference import q_value


def test_value_monotone_in_size_universal():
    rng = np.random.default_rng(31)
    for _ in range(15):
        model, spec = random_general_instance(rng)
        _, vt = solve(model, spec)
        assert check_value_monotone_in_size(vt).passed


def test_flatcost_value_and_preference_properties():
    rng = np.random.default_rng(32)
    for i in range(15):
        model, spec = random_flatcost_instance(rng, wifi_slower=(i % 3 != 0))
        pol, vt = solve(model, spec, flat_payment=True)
        assert check_value_monotone_in_size(vt).passed
        assert check_value_monotone_in_time(vt).passed
        assert check_wifi_preference(model, spec, pol, vt).passed
        assert check_single_switch(pol, model).passed


def test_threshold_monotone_property():
    rng = np.random.default_rng(33)
    for _ in range(10):
        model, spec = random_flatcost_instance(rng)
        tp, _ = solve_monotone(monotone_view(model, spec), spec)
        assert check_threshold_monotone(tp).passed


GENERATED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@GENERATED
@given(general_instances())
def test_value_monotone_in_size_on_generated_instances(instance):
    # Lemma 1a holds for any prices, rates and non-decreasing penalty
    model, spec = instance
    _, vt = solve(model, spec)
    result = check_value_monotone_in_size(vt)
    assert result.passed, result.detail


# Lemmas 1b and 2 and Theorems 2 and 3 on the planners that run_verification
# pairs them with: the exact planner with full-slot billing on the frontier
# planner's network, and the decisions-only frontier solve.
def flat_solve(model, spec):
    net = MonotoneModel.from_network_model(model, spec).to_network_model()
    return (net,) + solve(net, spec, flat_payment=True)


@GENERATED
@given(flatcost_instances())
def test_value_monotone_in_time_on_generated_instances(instance):
    _, _, vt = flat_solve(*instance)
    result = check_value_monotone_in_time(vt)
    assert result.passed, result.detail


@GENERATED
@given(flatcost_instances())
def test_wifi_preference_on_generated_instances(instance):
    net, policy, vt = flat_solve(*instance)
    result = check_wifi_preference(net, instance[1], policy, vt)
    assert result.passed, result.detail


@GENERATED
@given(flatcost_instances())
def test_single_switch_on_generated_instances(instance):
    net, policy, _ = flat_solve(*instance)
    result = check_single_switch(policy, net)
    assert result.passed, result.detail


@GENERATED
@given(flatcost_instances(max_steps=12, max_slots=40))
def test_threshold_monotone_on_generated_instances(instance):
    model, spec = instance
    tp, _ = solve_monotone(MonotoneModel.from_network_model(model, spec), spec, values=False)
    result = check_threshold_monotone(tp)
    assert result.passed, result.detail


def test_long_horizon_instances_rarely_have_one_slot():
    # the strategy of the test above exercises epoch steps and early stops
    horizons = []

    @GENERATED
    @given(flatcost_instances(max_steps=6, max_slots=40))
    def record(instance):
        horizons.append(instance[1].horizon)

    record()
    assert len(horizons) >= 100
    assert horizons.count(1) <= 0.1 * len(horizons), horizons
    assert sum(h >= 20 for h in horizons) >= 0.25 * len(horizons), horizons


def test_cross_difference_on_uniform_coverage():
    rng = np.random.default_rng(34)
    for i in range(12):
        model, spec = single_class_flatcost_instance(rng, all_wifi=(i % 2 == 0))
        _, vt = solve(model, spec, flat_payment=True)
        assert check_cross_difference(model, spec, vt).passed


def wrong_sign_pairs(model, spec, vt):
    """Every (t, l, k_hi, k_lo) whose cross difference has the wrong sign,
    from the action values one (state, action) at a time."""
    tol = 1e-9 * max(1.0, float(np.abs(vt.values).max()))
    wrong = []
    for t in range(1, spec.horizon + 1):
        for l in range(1, model.num_locations + 1):
            if model.has_wifi(l):
                if model.rate_of(l, Action.WIFI) > model.rate_of(l, Action.CELLULAR):
                    continue
                hi, lo, sign = Action.WIFI, Action.CELLULAR, 1.0
            else:
                hi, lo, sign = Action.CELLULAR, Action.IDLE, -1.0
            psi = [
                [q_value(model, spec, vt.values[t], s, a, flat_payment=True) for a in (hi, lo)]
                for s in (State(n * spec.grid_step, l) for n in range(spec.grid_points + 1))
            ]
            for k_hi in range(1, spec.grid_points + 1):
                for k_lo in range(k_hi):
                    cross = psi[k_hi][0] + psi[k_lo][1] - psi[k_hi][1] - psi[k_lo][0]
                    if sign * cross < -tol:
                        wrong.append((t, l, k_hi, k_lo))
    return wrong


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(flatcost_instances(max_steps=8, max_slots=4))
def test_cross_difference_check_covers_every_pair(instance):
    model, spec = instance
    _, vt = solve(model, spec, flat_payment=True)
    result = check_cross_difference(model, spec, vt)
    if spec.grid_points < 1:
        assert result.status == "skip"
    else:
        wrong = wrong_sign_pairs(model, spec, vt)
        assert result.failed == bool(wrong), (result.detail, wrong[:3])


def test_cross_difference_reports_the_pair_at_the_running_maximum():
    # One location without Wi-Fi and free one-step cellular, so that
    # sign * D(k) is the increment v(k) - v(k - 1) of the next epoch's costs.
    # Size 4 falls more than the tolerance below size 2 but not below
    # size 3, which is itself within the tolerance of size 2.
    rate = np.zeros((1, 3))
    rate[0, Action.CELLULAR] = 1.0
    model = NetworkModel(1, frozenset(), np.ones((1, 1)), np.zeros((1, 3)), rate)
    spec = ProblemSpec(4.0, 1, 1.0, QuadraticPenalty(1.0))
    tol = 13e-9  # the check's 1e-9 relative tolerance at the largest cost, ~13
    steps = [0.0, 1.0, 4.0, 4.0 - 0.4 * tol, 4.0 - 1.2 * tol]
    values = np.zeros((2, 1, 5))
    values[1, 0] = np.cumsum(steps)
    r = check_cross_difference(model, spec, ValueTable(values, 1.0, 1))
    assert r.failed
    assert r.detail.endswith("(t=1, l=1, k=4.0 vs 2.0)"), r.detail


def test_increment_monotone_on_uniform_coverage():
    rng = np.random.default_rng(35)
    for i in range(12):
        model, spec = single_class_flatcost_instance(rng, all_wifi=(i % 2 == 0))
        _, vt = solve(model, spec, flat_payment=True)
        assert check_increment_monotone(model, spec, vt).passed


def test_cross_difference_scope_needs_uniform_coverage():
    """The sign condition can genuinely reverse when coverage is mixed.

    The counterexample below is certified against the brute-force solver,
    so the reversal is a property of the optimal values themselves, not of
    the planner: with one covered and two uncovered locations, waiting
    gains extra value exactly where a future Wi-Fi visit can replace a
    paid slot, and that kink breaks the sign condition while leaving the
    single-switch shape of the decisions intact (see the flat-cost
    property test above).
    """
    rng = np.random.default_rng(12345)
    found = None
    for _ in range(600):
        model, spec = random_flatcost_instance(rng, wifi_slower=True, max_locations=4)
        if (
            spec.horizon > 5
            or spec.grid_points > 6
            or model.num_locations > 4
            or not model.wifi_locations
            or len(model.wifi_locations) == model.num_locations
        ):
            continue
        pol, vt = solve(model, spec, flat_payment=True)
        r = check_cross_difference(model, spec, vt)
        if r.failed:
            found = (model, spec, pol, vt)
            break
    assert found is not None, "expected a mixed-coverage sign reversal in the sample"
    assert r.detail.endswith("(t=1, l=1, k=4.0 vs 3.0)"), r.detail
    model, spec, pol, vt = found
    assert (1, 1, 4, 3) in wrong_sign_pairs(model, spec, vt)
    # certify the solved values with the independent brute-force solver
    for t in (1, 2):
        for l in range(1, model.num_locations + 1):
            for n in range(spec.grid_points + 1):
                res = expectimax(
                    model, spec, State(n * spec.grid_step, l), t, flat_payment=True
                )
                got = vt.value(t, n * spec.grid_step, l)
                assert got == pytest.approx(res.optimal_value, rel=1e-9)
    # the decision structure itself still holds
    assert check_single_switch(pol, model).passed


def test_check_oracle_small_instance():
    rng = np.random.default_rng(36)
    for _ in range(5):
        model, spec = random_general_instance(rng)
        assert check_oracle(model, spec).passed


# Scenario keys for verify's oracle instance: a deadline under 4 slots, an
# empty file, a file off its grid, and slots and grid steps that are not
# whole numbers of seconds or Mbit.
ORACLE_CASES = [
    {},
    dict(deadline_minutes=0.5),
    dict(file_mbytes=0.0),
    dict(file_mbytes=1.3, grid_step_mbit=3.0),
    dict(slot_seconds=7.0, deadline_minutes=2.1, grid_step_mbit=0.3),
    dict(grid_rows=1, grid_cols=3, wifi_prob=1.0, penalty="step"),
]


@pytest.mark.filterwarnings("ignore:file size")  # the full-size file of one case
@pytest.mark.parametrize("over", ORACLE_CASES)
def test_oracle_instance_is_the_scenario_shrunk(over):
    cfg = ScenarioConfig(**over)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the shrunk file is on its grid
        model, spec = sample_instance(oracle_config(cfg), np.random.default_rng(3))
    assert model.num_locations == 4
    assert spec.horizon == min(cfg.horizon, 4)
    assert spec.grid_points == max(1, min(round(cfg.file_mbit / cfg.grid_step_mbit), 4))
    (result,) = run_verification(cfg, ("oracle",))
    assert result.passed, result.detail


def test_run_verification_all_pass_on_baseline():
    cfg = ScenarioConfig(grid_rows=2, grid_cols=2, file_mbytes=125.0, deadline_minutes=1.0, runs=1)
    results = run_verification(cfg)
    by_name = {r.name: r for r in results}
    assert set(by_name) == {"lemma1a", "lemma1b", "lemma2", "theorem2", "theorem3", "oracle"}
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_run_verification_skips_without_convexity():
    cfg = ScenarioConfig(
        grid_rows=2, grid_cols=2, file_mbytes=125.0, deadline_minutes=1.0, runs=1, penalty="step"
    )
    results = run_verification(cfg, ("lemma1b", "theorem2", "lemma1a"))
    by_name = {r.name: r for r in results}
    assert by_name["lemma1b"].status == "skip"
    assert by_name["theorem2"].status == "skip"
    assert by_name["lemma1a"].passed
