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
from offloadsim.threshold import (
    MonotoneModel,
    decide,
    solve_monotone,
    t_star_view,
)

from instances import (
    edge_flatcost_instances,
    flatcost_instances,
    grid_demo_model,
    monotone_view,
    random_flatcost_instance,
    threshold_demo,
)


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
                ks_next = (
                    tp.threshold(l, t + 1) if t < spec.horizon else 0.0
                )
                ks, row = threshold_pass(mm, spec, l, v_next, ks_next)
                assert ks == pytest.approx(tp.threshold(l, t))
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

    assert decide(tp, State(0.0, 1), 5) is Action.IDLE
    k_star = tp.threshold(1, 20)
    assert decide(tp, State(k_star, 1), 20) is Action.CELLULAR
    if k_star > spec.grid_step:
        assert decide(tp, State(k_star - spec.grid_step, 1), 20) is Action.IDLE
    k_star4 = tp.threshold(4, 20)
    if k_star4 > spec.grid_step:
        assert decide(tp, State(k_star4 - spec.grid_step, 4), 20) is Action.WIFI
    assert decide(tp, State(k_star4, 4), 20) is Action.CELLULAR


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
    for values in (True, False):
        tp, _ = solve_monotone(mm, spec, values=values)
        assert tp.wifi_locations == model.wifi_locations
        for l in tp.wifi_locations:
            assert (tp.k_star_idx[l - 1] == spec.grid_points + 1).all(), (values, l)
            for t in range(1, spec.horizon + 1):
                assert tp.threshold(l, t) == tp.sentinel
                for n in range(1, spec.grid_points + 1):
                    assert decide(tp, State(n * spec.grid_step, l), t) is Action.WIFI
            # matches the exact planner under the same cost model
            assert (pol.actions[:, l - 1, 1:] == int(Action.WIFI)).all()


def test_last_epoch_threshold_at_one_step_when_penalty_exceeds_slot_cost():
    # h(step) = 10 > q = 1 and the cellular rate covers a full step, so an
    # uncovered location transmits from one step up at the last epoch; a
    # covered one clears the first step free and switches one step higher.
    model, spec = threshold_demo()
    mm = monotone_view(model, spec)
    tp, _ = solve_monotone(mm, spec)
    for l in range(1, 17):
        if l in model.wifi_locations:
            assert tp.threshold(l, 20) == 2 * spec.grid_step
        else:
            assert tp.threshold(l, 20) <= spec.grid_step


def test_sentinel_when_cellular_never_chosen():
    model = grid_demo_model(price_cellular=1e9)  # absurd slot cost
    spec = ProblemSpec(20.0, 5, 1.0, QuadraticPenalty(0.001))
    mm = monotone_view(model, spec)
    tp, _ = solve_monotone(mm, spec)
    assert (tp.k_star_idx == spec.grid_points + 1).all()
    assert decide(tp, State(20.0, 1), 1) is Action.IDLE
    assert decide(tp, State(20.0, 4), 1) is Action.WIFI


def test_frontier_monotone_in_time():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model, spec = random_flatcost_instance(rng)
        tp, _ = solve_monotone(monotone_view(model, spec), spec)
        ks = tp.k_star_idx
        assert (ks[:, :-1] >= ks[:, 1:]).all()


def test_t_star_view():
    model, spec = threshold_demo()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    assert t_star_view(tp, 0.0, 1) == spec.horizon + 1
    assert t_star_view(tp, tp.threshold(1, 1), 1) == 1
    for l in range(1, 17):
        stars = [t_star_view(tp, float(n), l) for n in range(21)]
        assert all(a >= b for a, b in zip(stars, stars[1:]))


def test_decide_and_t_star_view_reject_sizes_off_or_above_the_grid():
    model, spec = threshold_demo()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    assert tp.grid_points == spec.grid_points
    for k in (0.5 * spec.grid_step, spec.file_size + spec.grid_step, -spec.grid_step):
        with pytest.raises(DomainError, match="size"):
            decide(tp, State(k, 1), 1)
        with pytest.raises(DomainError, match="size"):
            t_star_view(tp, k, 1)


@pytest.mark.parametrize("l", [0, 17])
def test_table_readers_reject_locations_outside_the_grid(l):
    # l = 0 used to read location 16's row through index -1
    model, spec = threshold_demo()
    policy, values = solve(model, spec)
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    k = spec.grid_step
    readers = [
        lambda: policy.action(1, k, l),
        lambda: values.value(1, k, l),
        lambda: t_star_view(tp, k, l),
        lambda: tp.threshold(l, 1),
        lambda: decide(tp, State(k, l), 1),
        lambda: dataclasses.replace(tp, wifi_locations={l}),  # a plan covering l
    ]
    for read in readers:
        with pytest.raises(DomainError, match=f"location {l} out of range 1..16"):
            read()


def test_policy_equivalence_with_exact_planner():
    for model, spec in flatcost_cases(24, 8, lambda i: i % 4 != 0):
        mm = monotone_view(model, spec)
        tp, vt_m = solve_monotone(mm, spec)
        pol, vt_f = solve(model, spec, flat_payment=True)
        np.testing.assert_allclose(vt_m.values, vt_f.values, rtol=2e-9, atol=0)
        for t in range(1, spec.horizon + 1):
            for l in range(1, model.num_locations + 1):
                for n in range(spec.grid_points + 1):
                    assert decide(tp, State(n * spec.grid_step, l), t) == pol.action(
                        t, n * spec.grid_step, l
                    )


def test_threshold_csv(tmp_path):
    model, spec = threshold_demo()
    tp, _ = solve_monotone(monotone_view(model, spec), spec)
    path = tmp_path / "kstar.csv"
    tp.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16 * 20
    for row in rows[:40]:
        assert tp.threshold(int(row["l"]), int(row["t"])) == float(row["k_star"])
