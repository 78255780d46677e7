import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from offloadsim.config import PROPERTY_NAMES, ScenarioConfig
from offloadsim.dp import ValueTable, solve
from offloadsim.model import Action, NetworkModel, ProblemSpec, QuadraticPenalty, State
from offloadsim.oracle import expectimax
from offloadsim import properties
from offloadsim.sim import build_grid_mobility, sample_runs
from offloadsim.properties import (
    CheckResult,
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
    flatcost_instance,
    flatcost_instances,
    general_instances,
    monotone_view,
    multiswitch_demo,
    random_flatcost_instance,
    random_general_instance,
    single_class_flatcost_instance,
)
from reference import check_cross_difference, check_increment_monotone, q_value


def test_value_monotone_in_size_universal():
    rng = np.random.default_rng(31)
    for _ in range(15):
        model, spec = random_general_instance(rng)
        _, vt = solve(model, spec)
        assert check_value_monotone_in_size(vt).status == "pass"


def test_flatcost_value_and_preference_properties():
    rng = np.random.default_rng(32)
    for i in range(15):
        model, spec = random_flatcost_instance(rng, wifi_slower=(i % 3 != 0))
        pol, vt = solve(model, spec, flat_payment=True)
        assert check_value_monotone_in_size(vt).status == "pass"
        assert check_value_monotone_in_time(vt).status == "pass"
        assert check_wifi_preference(model, spec, pol, vt).status == "pass"
        assert check_single_switch(pol, model).status == "pass"


def test_threshold_monotone_property():
    rng = np.random.default_rng(33)
    for _ in range(10):
        model, spec = random_flatcost_instance(rng)
        tp, _ = solve_monotone(monotone_view(model, spec), spec)
        assert check_threshold_monotone(tp).status == "pass"


GENERATED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@GENERATED
@given(general_instances())
def test_value_monotone_in_size_on_generated_instances(instance):
    # Lemma 1a holds for any prices, rates and non-decreasing penalty
    model, spec = instance
    _, vt = solve(model, spec)
    result = check_value_monotone_in_size(vt)
    assert result.status == "pass", result.detail


# Lemmas 1b and 2 and Theorems 2 and 3 on the planners that run_verification
# pairs them with: the exact planner with full-slot billing on the frontier
# planner's network, and the decisions-only frontier solve.
def flat_solve(model, spec):
    return (model,) + solve(model, spec, flat_payment=True)


@GENERATED
@given(flatcost_instances())
def test_value_monotone_in_time_on_generated_instances(instance):
    _, _, vt = flat_solve(*instance)
    result = check_value_monotone_in_time(vt)
    assert result.status == "pass", result.detail


@GENERATED
@given(flatcost_instances())
def test_wifi_preference_on_generated_instances(instance):
    net, policy, vt = flat_solve(*instance)
    result = check_wifi_preference(net, instance[1], policy, vt)
    assert result.status == "pass", result.detail


@GENERATED
@given(flatcost_instances())
def test_single_switch_on_generated_instances(instance):
    net, policy, _ = flat_solve(*instance)
    result = check_single_switch(policy, net)
    assert result.status == "pass", result.detail


@GENERATED
@given(flatcost_instances(max_steps=12, max_slots=40))
def test_threshold_monotone_on_generated_instances(instance):
    model, spec = instance
    tp, _ = solve_monotone(MonotoneModel.from_network_model(model, spec), spec, values=False)
    result = check_threshold_monotone(tp)
    assert result.status == "pass", result.detail


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
        assert check_cross_difference(model, spec, vt).status == "pass"


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
        assert (result.status == "fail") == bool(wrong), (result.detail, wrong[:3])


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
    r = check_cross_difference(model, spec, ValueTable(values, 1.0))
    assert r.status == "fail"
    assert r.detail.endswith("(t=1, l=1, k=4.0 vs 2.0)"), r.detail


def test_increment_monotone_on_uniform_coverage():
    rng = np.random.default_rng(35)
    for i in range(12):
        model, spec = single_class_flatcost_instance(rng, all_wifi=(i % 2 == 0))
        _, vt = solve(model, spec, flat_payment=True)
        assert check_increment_monotone(model, spec, vt).status == "pass"


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
        if r.status == "fail":
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
    assert check_single_switch(pol, model).status == "pass"


def test_check_oracle_small_instance():
    rng = np.random.default_rng(36)
    for _ in range(5):
        model, spec = random_general_instance(rng)
        assert check_oracle(model, spec).status == "pass"


def one_cell_instance():
    """One location without Wi-Fi: sending the 10-unit file over cellular
    costs 2.5 and idling a penalty of 100, so the start value is 2.5 and
    the planner's root action is cellular."""
    rate = np.zeros((1, 3))
    price = np.zeros((1, 3))
    rate[0, Action.CELLULAR] = 10.0
    price[0, Action.CELLULAR] = 0.25
    model = NetworkModel(1, frozenset(), np.ones((1, 1)), price, rate)
    return model, ProblemSpec(10.0, 1, 10.0, QuadraticPenalty(1.0), initial_location=1)


def test_check_oracle_reports_a_start_value_mismatch(monkeypatch):
    def off_by_one(*args, **kw):
        res = expectimax(*args, **kw)
        return dataclasses.replace(res, optimal_value=res.optimal_value + 1.0)

    monkeypatch.setattr(properties, "expectimax", off_by_one)
    detail = "planner start value 2.5 vs brute force 3.5 (relative error 2.86e-01)"
    assert check_oracle(*one_cell_instance()) == CheckResult("oracle", "fail", detail)


def test_check_oracle_reports_a_root_action_outside_the_optima(monkeypatch):
    def idle_optimal(*args, **kw):
        res = expectimax(*args, **kw)
        return dataclasses.replace(res, optimal_action_at_root=frozenset({Action.IDLE}))

    monkeypatch.setattr(properties, "expectimax", idle_optimal)
    detail = "planner root action CELLULAR not among brute-force optima ['IDLE']"
    assert check_oracle(*one_cell_instance()) == CheckResult("oracle", "fail", detail)


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
        model, spec, _ = next(sample_runs(oracle_config(cfg), (0,)))  # what verify checks
    assert model.num_locations == 4
    assert spec.horizon == min(cfg.horizon, 4)
    assert spec.grid_points == max(1, min(round(cfg.file_mbit / cfg.grid_step_mbit), 4))
    (result,) = run_verification(cfg, ("oracle",))
    assert result.status == "pass", result.detail


def test_run_verification_all_pass_on_baseline():
    cfg = ScenarioConfig(grid_rows=2, grid_cols=2, file_mbytes=125.0, deadline_minutes=1.0, runs=1)
    results = run_verification(cfg)
    assert tuple(r.name for r in results) == PROPERTY_NAMES
    assert all(r.status == "pass" for r in results), [(r.name, r.detail) for r in results]


def test_run_verification_skips_without_convexity():
    cfg = ScenarioConfig(
        grid_rows=2, grid_cols=2, file_mbytes=125.0, deadline_minutes=1.0, runs=1, penalty="step"
    )
    asked = ("theorem3", "lemma1b", "oracle", "theorem2", "lemma1a", "lemma2")
    results = run_verification(cfg, asked)
    assert tuple(r.name for r in results) == asked
    flat = ("theorem3", "lemma1b", "theorem2", "lemma2")
    assert [r for r in results if r.name in flat] == [
        CheckResult(p, "skip", "penalty not convex on the size grid") for p in flat
    ]
    assert [r.status for r in results if r.name in ("lemma1a", "oracle")] == ["pass", "pass"]


# Failure reports.  Each test plants faults in the tables of one solved
# flat-cost instance: a 2x2 grid with Wi-Fi at locations 2 and 4, cellular
# at 2 steps per slot, a 6-step file and 5 slots, and Wi-Fi at 1 step (slower
# than cellular) or 3 (faster).  With Wi-Fi slower, locations 1 and 3 idle
# below their size frontier and locations 2 and 4 take Wi-Fi below it.


def solved_flat(mu_wifi=1.0):
    model, spec = flatcost_instance(
        build_grid_mobility(2, 2, 0.6), {2, 4}, 2.0, mu_wifi, 0.5, 6, 5, 1.0
    )
    policy, vt = solve(model, spec, flat_payment=True)
    tp, _ = solve_monotone(monotone_view(model, spec), spec, values=False)
    return model, spec, policy, vt, tp


def planted(table, field, *cells):
    """``table`` with ``field`` set to ``value`` at each ``(index, value)``."""
    arr = getattr(table, field).copy()
    for index, value in cells:
        arr[index] = value
    return dataclasses.replace(table, **{field: arr})


def test_solved_flat_tables_pass_every_check():
    for mu_wifi in (1.0, 3.0):
        model, spec, policy, vt, tp = solved_flat(mu_wifi)
        for r in (
            check_value_monotone_in_size(vt),
            check_value_monotone_in_time(vt),
            check_wifi_preference(model, spec, policy, vt),
            check_single_switch(policy, model),
            check_threshold_monotone(tp),
        ):
            assert r.status == "pass", (mu_wifi, r)


def test_value_monotone_in_size_reports_the_first_drop():
    *_, vt, _ = solved_flat()
    v = vt.values
    bad = planted(vt, "values", ((2, 1, 3), v[2, 1, 2] - 1.0), ((4, 0, 2), -1.0))
    assert check_value_monotone_in_size(bad) == CheckResult(
        "lemma1a", "fail", "value(t=3, k=3.0, l=2) < value at k=2.0"
    )


def test_value_monotone_in_time_reports_the_first_drop():
    *_, vt, _ = solved_flat()
    v = vt.values
    bad = planted(vt, "values", ((3, 0, 4), v[2, 0, 4] - 1.0), ((4, 3, 1), -1.0))
    assert check_value_monotone_in_time(bad) == CheckResult(
        "lemma1b", "fail", "value(t=4, k=4.0, l=1) < value(t=3, ...)"
    )


def test_wifi_preference_reports_idling_that_beats_wifi():
    # cheaper cost-to-go at size 4 after epoch 3 makes idling there beat Wi-Fi
    model, spec, policy, vt, _ = solved_flat()
    bad = planted(vt, "values", ((3, 1, 4), -100.0))
    assert check_wifi_preference(model, spec, policy, bad) == CheckResult(
        "lemma2", "fail", "idling beats Wi-Fi at (t=3, k=4.0, l=2)"
    )


def test_wifi_preference_reports_wifi_not_taken_where_it_is_faster():
    model, spec, policy, vt, _ = solved_flat(mu_wifi=3.0)
    cell = int(Action.CELLULAR)
    bad = planted(policy, "actions", ((2, 3, 5), cell), ((4, 3, 1), cell))
    assert check_wifi_preference(model, spec, bad, vt) == CheckResult(
        "lemma2",
        "fail",
        "Wi-Fi at least as fast as cellular but action at (t=3, k=5.0, l=4) is not Wi-Fi",
    )
    # location by location, and at one location every epoch's idling test
    # before the first action test
    worse = planted(bad, "actions", ((0, 1, 6), cell))
    assert check_wifi_preference(model, spec, worse, vt).detail.endswith(
        "action at (t=1, k=6.0, l=2) is not Wi-Fi"
    )
    values = planted(vt, "values", ((4, 1, 2), -100.0))
    assert check_wifi_preference(model, spec, worse, values).detail == (
        "idling beats Wi-Fi at (t=4, k=2.0, l=2)"
    )


def test_single_switch_reports_an_unexpected_action():
    model, _, policy, *_ = solved_flat()
    bad = planted(policy, "actions", ((1, 0, 2), int(Action.WIFI)))
    assert check_single_switch(bad, model) == CheckResult(
        "theorem2", "fail", "unexpected action WIFI at (t=2, k=2.0, l=1)"
    )
    bad = planted(policy, "actions", ((4, 3, 6), int(Action.IDLE)))
    assert check_single_switch(bad, model).detail == (
        "unexpected action IDLE at (t=5, k=6.0, l=4)"
    )


def test_single_switch_reports_a_second_switch():
    model, _, policy, *_ = solved_flat()
    bad = planted(policy, "actions", ((2, 0, 5), int(Action.IDLE)))
    assert check_single_switch(bad, model) == CheckResult(
        "theorem2",
        "fail",
        "cellular gives way to IDLE above (t=3, k=4.0, l=1): more than one switch",
    )
    bad = planted(policy, "actions", ((4, 1, 4), int(Action.WIFI)))
    assert check_single_switch(bad, model).detail == (
        "cellular gives way to WIFI above (t=5, k=3.0, l=2): more than one switch"
    )


def test_single_switch_scans_columns_in_order():
    # within one column an unexpected action comes first, even above a
    # second switch; an earlier column comes first whatever it holds
    model, _, policy, *_ = solved_flat()
    idle, wifi = int(Action.IDLE), int(Action.WIFI)
    bad = planted(policy, "actions", ((2, 0, 4), idle), ((2, 0, 6), wifi))
    assert check_single_switch(bad, model).detail == (
        "unexpected action WIFI at (t=3, k=6.0, l=1)"
    )
    bad = planted(bad, "actions", ((1, 0, 5), idle))
    assert check_single_switch(bad, model).detail == (
        "cellular gives way to IDLE above (t=2, k=4.0, l=1): more than one switch"
    )


def test_single_switch_fails_on_the_step_penalty_demo():
    model, spec = multiswitch_demo()
    policy, _ = solve(model, spec)
    assert check_single_switch(policy, model) == CheckResult(
        "theorem2",
        "fail",
        "cellular gives way to IDLE above (t=14, k=18.0, l=1): more than one switch",
    )


def test_threshold_monotone_reports_a_size_frontier_that_grows():
    *_, tp = solved_flat()
    bad = planted(tp, "k_star_idx", ((0, 3), 4), ((1, 0), 3))
    assert check_threshold_monotone(bad) == CheckResult(
        "theorem3", "fail", "frontier at (l=1, t=3) is below the one at t=4"
    )
