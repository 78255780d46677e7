import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings

from offloadsim.dp import TIE_REL_TOL, solve
from offloadsim.errors import DomainError, PreconditionError
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    State,
    StepPenalty,
    transfer_steps,
)
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import (
    edge_flatcost_instances,
    flatcost_instances,
    grid_demo_model,
    monotone_view,
    random_flatcost_instance,
    threshold_demo,
)
from reference import decide


def k_star(tp, l, t):
    """The frontier at location ``l`` and epoch ``t`` as a size."""
    return float(tp.k_star_idx[l - 1, t - 1] * tp.grid_step)


def test_from_network_model_strict_errors():
    model, spec = threshold_demo()

    paid_wifi = np.array(model.price)
    paid_wifi[3, Action.WIFI] = 0.1
    bad = NetworkModel(16, model.wifi_locations, model.mobility, paid_wifi, model.rate)
    with pytest.raises(PreconditionError, match="free"):
        MonotoneModel.from_network_model(bad, spec)

    varied_price = np.array(model.price)
    varied_price[0, Action.CELLULAR] = 0.9
    bad = NetworkModel(16, model.wifi_locations, model.mobility, varied_price, model.rate)
    with pytest.raises(PreconditionError, match="price"):
        MonotoneModel.from_network_model(bad, spec)

    varied_rate = np.array(model.rate)
    varied_rate[0, Action.CELLULAR] = 5.0
    bad = NetworkModel(16, model.wifi_locations, model.mobility, model.price, varied_rate)
    with pytest.raises(PreconditionError, match="cellular rate"):
        MonotoneModel.from_network_model(bad, spec)

    varied_wifi = np.array(model.rate)
    varied_wifi[3, Action.WIFI] = 0.25
    bad = NetworkModel(16, model.wifi_locations, model.mobility, model.price, varied_wifi)
    with pytest.raises(PreconditionError, match="Wi-Fi rate"):
        MonotoneModel.from_network_model(bad, spec)

    step_spec = ProblemSpec(20.0, 20, 1.0, StepPenalty(10.0))
    with pytest.raises(PreconditionError, match="convex"):
        MonotoneModel.from_network_model(model, step_spec)


@pytest.mark.parametrize(
    "mu_cellular, mu_wifi, cost, message",
    [
        (-1.0, 1.0, 0.0, "rates must be >= 0"),
        (1.0, -1.0, 0.0, "rates must be >= 0"),
        (1.0, 1.0, -1.0, "cellular slot cost must be >= 0"),
        (0.0, 1.0, 1.0, "cellular slot cost must be 0 when the cellular rate is 0"),
    ],
)
def test_monotone_model_preconditions(mu_cellular, mu_wifi, cost, message):
    def build(mu_cellular, mu_wifi, cost):
        return MonotoneModel(2, {1}, np.eye(2), mu_cellular, mu_wifi, cost, QuadraticPenalty(1.0))

    with pytest.raises(PreconditionError) as exc:
        build(mu_cellular, mu_wifi, cost)
    assert str(exc.value) == message
    build(0.0, 0.0, 0.0)  # every boundary at once is accepted


def test_solve_monotone_rejects_nonconvex_penalty():
    model, _ = threshold_demo()
    mm = monotone_view(model, ProblemSpec(20.0, 20, 1.0, QuadraticPenalty(10.0)))
    step_spec = ProblemSpec(20.0, 20, 1.0, StepPenalty(10.0))
    with pytest.raises(PreconditionError, match="convex"):
        solve_monotone(mm, step_spec)


def threshold_pass(mm, spec, l, v_next, k_star_next):
    """Pure-Python reference for one backward step at one location.

    ``v_next`` is the next epoch's cost slice ``[location-1, k/step]`` and
    ``k_star_next`` the frontier found one epoch later (0 on the first
    pass, so the whole range is searched).  Sizes are scanned upward:
    below ``k_star_next`` only the free action is evaluated; between the
    frontiers both candidates are compared; after the switch the cost is
    the cheaper of the two.  Returns the frontier (sentinel: file size +
    one step) and the cost row.
    """
    N = spec.grid_points
    sigma = spec.grid_step
    wifi = l in mm.wifi_locations
    dj = transfer_steps(spec, mm.mu_wifi) if wifi else 0
    d1 = transfer_steps(spec, mm.mu_cellular)
    q = mm.cellular_cost
    w = mm.mobility[l - 1] @ v_next

    ks_next_idx = min(int(round(k_star_next / sigma)), N + 1)
    vrow = np.empty(N + 1)
    ks_idx = N + 1
    locked = False  # cellular region reached
    for n in range(N + 1):
        psi_1 = q + w[max(0, n - d1)]
        psi_j = w[max(0, n - dj)]
        if n < ks_next_idx:
            vrow[n] = psi_j
            continue
        vrow[n] = min(psi_1, psi_j)
        if not locked:
            if wifi:
                take_cell = psi_1 < psi_j * (1.0 - TIE_REL_TOL)
            else:
                take_cell = psi_j >= psi_1 * (1.0 - TIE_REL_TOL)
            if take_cell:
                ks_idx = n
                locked = True
    return ks_idx * sigma, vrow


def flatcost_cases(seed, count, wifi_slower):
    """``count`` seeded flat-cost instances followed by the edge instances."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield random_flatcost_instance(rng, wifi_slower=wifi_slower(i))
    yield from edge_flatcost_instances()


def test_threshold_pass_matches_fast_solver():
    for model, spec in flatcost_cases(21, 15, lambda i: i % 3 != 0):
        mm = monotone_view(model, spec)
        tp, vt = solve_monotone(mm, spec)
        N = spec.grid_points
        for t in range(spec.horizon, 0, -1):
            v_next = vt.values[t]
            for l in range(1, model.num_locations + 1):
                ks_next = k_star(tp, l, t + 1) if t < spec.horizon else 0.0
                ks, row = threshold_pass(mm, spec, l, v_next, ks_next)
                assert ks == pytest.approx(k_star(tp, l, t))
                np.testing.assert_allclose(
                    row, vt.values[t - 1, l - 1], rtol=1e-12, atol=0
                )


def test_solve_monotone_takes_penalty_from_spec():
    model, spec = threshold_demo()
    mm = dataclasses.replace(monotone_view(model, spec), penalty=StepPenalty(50.0))
    _, vt = solve_monotone(mm, spec)
    terminal = [spec.penalty(float(k)) for k in spec.grid_values]
    assert (vt.values[spec.horizon] == np.array(terminal)[None, :]).all()
    _, vt_flat = solve(model, spec, flat_payment=True)
    np.testing.assert_allclose(vt.values, vt_flat.values, rtol=2e-9, atol=0)


def test_decide_semantics():
    model, spec = threshold_demo()
    mm = monotone_view(model, spec)
    tp, _ = solve_monotone(mm, spec)
    assert 1 not in tp.wifi_locations and 4 in tp.wifi_locations
    assert mm.mu_wifi <= mm.mu_cellular

    policy = tp.to_policy()
    assert policy.action(5, 0.0, 1) is Action.IDLE
    k_star1 = k_star(tp, 1, 20)
    assert policy.action(20, k_star1, 1) is Action.CELLULAR
    if k_star1 > spec.grid_step:
        assert policy.action(20, k_star1 - spec.grid_step, 1) is Action.IDLE
    k_star4 = k_star(tp, 4, 20)
    if k_star4 > spec.grid_step:
        assert policy.action(20, k_star4 - spec.grid_step, 4) is Action.WIFI
    assert policy.action(20, k_star4, 4) is Action.CELLULAR


def assert_table_is_the_rule(tp):
    """``tp.to_policy()`` is ``decide`` at every epoch, location and size."""
    policy = tp.to_policy()
    N = tp.grid_points
    assert policy.actions.dtype == np.int8
    assert tp.horizon == tp.k_star_idx.shape[1]
    assert policy.actions.shape == (tp.horizon, tp.num_locations, N + 1)
    assert (policy.grid_step, policy.horizon) == (tp.grid_step, tp.horizon)
    for t in range(1, tp.horizon + 1):
        for l in range(1, tp.num_locations + 1):
            for n in range(N + 1):
                k = n * tp.grid_step
                assert policy.action(t, k, l) is decide(tp, State(k, l), t), (t, l, n)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(flatcost_instances())
def test_to_policy_is_the_reference_rule_on_generated_instances(instance):
    model, spec = instance
    tp, _ = solve_monotone(monotone_view(model, spec), spec, values=False)
    assert_table_is_the_rule(tp)


def never_cellular():
    """An absurd slot cost: every frontier is the sentinel."""
    return grid_demo_model(price_cellular=1e9), ProblemSpec(20.0, 5, 1.0, QuadraticPenalty(0.001))


@pytest.mark.parametrize("instance", edge_flatcost_instances() + [never_cellular()])
def test_to_policy_is_the_reference_rule_on_edge_instances(instance):
    # an empty file, no or full coverage, Wi-Fi faster than cellular
    # (Lemma 2), a single slot, and a plan that is all sentinel
    model, spec = instance
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    assert_table_is_the_rule(tp)


def wifi_faster(instance):
    """Some location has Wi-Fi, at a higher rate than cellular."""
    rate = instance[0].rate
    return rate[:, Action.WIFI].max() > rate[0, Action.CELLULAR]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(flatcost_instances().filter(wifi_faster))
@example((grid_demo_model(1.0, 2.0), ProblemSpec(20.0, 20, 1.0, QuadraticPenalty(10.0))))
def test_wifi_faster_mode_always_wifi(instance):
    # Lemma 2: where Wi-Fi is faster than cellular, every epoch holds the
    # sentinel, so Wi-Fi is taken at every positive size
    model, spec = instance
    mm = monotone_view(model, spec)
    assert mm.wifi_locations and mm.mu_wifi > mm.mu_cellular
    pol, _ = solve(model, spec, flat_payment=True)
    wifi = [l - 1 for l in model.wifi_locations]
    for values in (True, False):
        tp, _ = solve_monotone(mm, spec, values=values)
        assert tp.wifi_locations == model.wifi_locations
        assert (tp.k_star_idx[wifi] == spec.grid_points + 1).all(), values
        assert (tp.to_policy().actions[:, wifi, 1:] == Action.WIFI).all(), values
    # matches the exact planner under the same cost model
    assert (pol.actions[:, wifi, 1:] == Action.WIFI).all()


def test_last_epoch_threshold_at_one_step_when_penalty_exceeds_slot_cost():
    # h(step) = 10 > q = 1 and the cellular rate covers a full step, so an
    # uncovered location transmits from one step up at the last epoch; a
    # covered one clears the first step free and switches one step higher.
    model, spec = threshold_demo()
    mm = monotone_view(model, spec)
    tp, _ = solve_monotone(mm, spec)
    for l in range(1, 17):
        if l in model.wifi_locations:
            assert k_star(tp, l, 20) == 2 * spec.grid_step
        else:
            assert k_star(tp, l, 20) <= spec.grid_step


def test_sentinel_when_cellular_never_chosen():
    model, spec = never_cellular()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    assert (tp.k_star_idx == spec.grid_points + 1).all()
    policy = tp.to_policy()
    assert policy.action(1, 20.0, 1) is Action.IDLE
    assert policy.action(1, 20.0, 4) is Action.WIFI


def test_frontier_monotone_in_time():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model, spec = random_flatcost_instance(rng)
        tp, _ = solve_monotone(monotone_view(model, spec), spec)
        ks = tp.k_star_idx
        assert (ks[:, :-1] >= ks[:, 1:]).all()


def test_time_frontier_never_grows_with_size():
    # the first epoch at which a size takes cellular, read off the table
    model, spec = threshold_demo()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    T = spec.horizon
    cellular = tp.to_policy().actions == Action.CELLULAR
    t_star = np.where(cellular.any(axis=0), cellular.argmax(axis=0) + 1, T + 1)
    assert (t_star[:, 0] == T + 1).all()
    assert t_star[0, tp.k_star_idx[0, 0]] == 1
    assert (t_star[:, :-1] >= t_star[:, 1:]).all()


def test_monotone_table_rejects_sizes_off_or_above_the_grid():
    model, spec = threshold_demo()
    tp, values = solve_monotone(monotone_view(model, spec), spec)
    assert tp.grid_points == spec.grid_points
    policy = tp.to_policy()
    for k in (0.5 * spec.grid_step, spec.file_size + spec.grid_step, -spec.grid_step):
        with pytest.raises(DomainError, match="size"):
            policy.action(1, k, 1)
    # a non-integral epoch is refused as an out-of-range one is
    for read, last in ((policy.action, spec.horizon), (values.value, spec.horizon + 1)):
        read(last, spec.grid_step, 1)
        for t in (0, 1.5, last + 1):
            with pytest.raises(DomainError, match=f"epoch {t} outside 1..{last}"):
                read(t, spec.grid_step, 1)


@pytest.mark.parametrize("l", [0, 17, 1.5])
def test_table_readers_reject_locations_outside_the_grid(l):
    # l = 0 used to read location 16's row through index -1, and l = 1.5
    # location 1's row
    model, spec = threshold_demo()
    policy, values = solve(model, spec)
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    k = spec.grid_step
    readers = [
        lambda: policy.action(1, k, l),
        lambda: values.value(1, k, l),
        lambda: tp.to_policy().action(1, k, l),
        lambda: dataclasses.replace(tp, wifi_locations={l}),  # a plan covering l
        lambda: dataclasses.replace(model, wifi_locations={l}),  # a network covering l
    ]
    message = "out of range 1..16" if l == int(l) else "is not a whole number"
    for read in readers:
        with pytest.raises(DomainError, match=f"location {l} {message}"):
            read()


def test_policy_equivalence_with_exact_planner():
    for model, spec in flatcost_cases(24, 8, lambda i: i % 4 != 0):
        mm = monotone_view(model, spec)
        tp, vt_m = solve_monotone(mm, spec)
        pol, vt_f = solve(model, spec, flat_payment=True)
        np.testing.assert_allclose(vt_m.values, vt_f.values, rtol=2e-9, atol=0)
        assert np.array_equal(tp.to_policy().actions, pol.actions)


def test_threshold_csv(tmp_path):
    model, spec = threshold_demo()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    path = tmp_path / "kstar.csv"
    tp.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16 * 20
    for row in rows[:40]:
        assert k_star(tp, int(row["l"]), int(row["t"])) == float(row["k_star"])
