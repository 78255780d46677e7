"""Shipping gate: one test per acceptance criterion.

Each test prints one ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure) and asserts the
criterion at its stated tolerance.  Monte-Carlo trend checks run 1000
paired episodes per sweep point and allow a one-percentage-point slack
on monotonicity, the resolution such estimates support.
"""

import time

import numpy as np
import pytest

import offloadsim as osim
from offloadsim.config import ScenarioConfig
from offloadsim.dp import solve
from offloadsim.model import Action, State
from offloadsim.oracle import expectimax
from offloadsim.properties import (
    check_cross_difference,
    check_increment_monotone,
    check_single_switch,
    check_threshold_monotone,
    check_value_monotone_in_size,
    check_value_monotone_in_time,
    check_wifi_preference,
)
from offloadsim.sim import run_experiment
from offloadsim.threshold import MonotoneModel, decide, solve_monotone

from instances import (
    grid_demo_model,
    monotone_view,
    multiswitch_demo,
    random_flatcost_instance,
    random_general_instance,
    single_class_flatcost_instance,
    threshold_demo,
)
from reference import q_value

SEED = 20260808


def _report(passed, label, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} {label}{suffix}")
    assert passed, f"{label}{suffix}"


# --------------------------------------------------------------------------
# 1. Planner values match the brute-force optimum on random small instances.
# --------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        model, spec = random_general_instance(rng)
        policy, vt = solve(model, spec)
        start = State(spec.file_size, spec.initial_location)
        res = expectimax(model, spec, start, 1)
        got = vt.value(1, spec.file_size, spec.initial_location)
        err = abs(got - res.optimal_value) / max(1.0, abs(res.optimal_value))
        worst = max(worst, err)
        assert err <= 1e-9

        slack = 1e-9 * max(1.0, abs(got))
        planner_set = {
            a
            for a in osim.admissible_actions(model, start.l)
            if q_value(model, spec, vt.values[1], start, a) <= got + slack
        }
        assert planner_set & res.optimal_action_at_root
        if spec.grid_points > 0:
            assert policy.action(1, start.k, start.l) in res.optimal_action_at_root
    elapsed = time.perf_counter() - started
    _report(
        elapsed < 10.0,
        "criterion 1: brute-force equivalence on 200 instances",
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. Threshold planner reproduces the exact planner cell for cell.
# --------------------------------------------------------------------------


def test_criterion_2_monotone_general_equivalence():
    rng = np.random.default_rng(SEED + 1)
    started = time.perf_counter()
    cells = 0
    for _ in range(50):
        model, spec = random_flatcost_instance(rng, wifi_slower=True)
        mm = monotone_view(model, spec)
        tp, _ = solve_monotone(mm, spec)
        policy, _ = solve(model, spec, flat_payment=True)
        for t in range(1, spec.horizon + 1):
            for l in range(1, model.num_locations + 1):
                for n in range(spec.grid_points + 1):
                    k = n * spec.grid_step
                    assert decide(tp, State(k, l), t) == policy.action(t, k, l), (
                        t,
                        k,
                        l,
                    )
                    cells += 1
    elapsed = time.perf_counter() - started
    _report(
        elapsed < 30.0,
        "criterion 2: threshold/exact planner equivalence on 50 instances",
        f"{cells} lattice cells, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Structured scenario: single switch per column, monotone frontiers,
#    frontier positions frozen in a golden file.
# --------------------------------------------------------------------------


def test_criterion_3_structure_suite():
    import csv
    import pathlib

    model, spec = threshold_demo()
    policy, _ = solve(model, spec, flat_payment=True)
    tp, _ = solve_monotone(monotone_view(model, spec), spec)

    single = check_single_switch(policy, model)
    assert single.passed, single.detail
    mono = check_threshold_monotone(tp)
    assert mono.passed, mono.detail

    # frontier positions derived from the exact planner's table
    N = spec.grid_points
    derived = np.full((model.num_locations, spec.horizon), N + 1, dtype=int)
    for l in range(model.num_locations):
        for t in range(spec.horizon):
            hits = np.where(policy.actions[t, l] == int(Action.CELLULAR))[0]
            if hits.size:
                derived[l, t] = hits[0]
    assert np.array_equal(derived, tp.k_star_idx)

    golden = pathlib.Path(__file__).parent / "data" / "threshold_demo_kstar.csv"
    with open(golden, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == model.num_locations * spec.horizon
    for row in rows:
        l, t = int(row["l"]), int(row["t"])
        assert derived[l - 1, t - 1] * spec.grid_step == float(row["k_star"]), (l, t)

    # an interior frontier actually exists on both location classes
    assert 0 < tp.k_star_idx[0].min() <= N
    assert (tp.k_star_idx[3] <= N).any()
    _report(True, "criterion 3: structure suite on the threshold demo scenario")


# --------------------------------------------------------------------------
# 4. Order properties of solved cost tables.
# --------------------------------------------------------------------------


def test_criterion_4_lemma_suite():
    rng = np.random.default_rng(SEED + 2)

    for _ in range(30):
        model, spec = random_general_instance(rng)
        _, vt = solve(model, spec)
        r = check_value_monotone_in_size(vt)
        assert r.passed, r.detail

    for i in range(30):
        model, spec = random_flatcost_instance(rng, wifi_slower=(i % 3 != 0))
        policy, vt = solve(model, spec, flat_payment=True)
        for r in (
            check_value_monotone_in_size(vt),
            check_value_monotone_in_time(vt),
            check_wifi_preference(model, spec, policy, vt),
        ):
            assert r.passed, (r.name, r.detail)

    # Sign conditions on two-point/two-action comparisons need
    # coverage-homogeneous locations (see test_properties for the certified
    # mixed-coverage counterexample); every pair of sizes at every epoch and
    # location per instance.
    for i in range(6):
        model, spec = single_class_flatcost_instance(rng, all_wifi=(i % 2 == 0))
        _, vt = solve(model, spec, flat_payment=True)
        r = check_cross_difference(model, spec, vt)
        assert r.passed, r.detail
        r = check_increment_monotone(model, spec, vt)
        assert r.passed, r.detail
    _report(True, "criterion 4: order-property suite on the random corpus")


# --------------------------------------------------------------------------
# 5-6. Stringent-deadline experiment, shared across two criteria.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def completion_experiment():
    cfg = ScenarioConfig(file_mbytes=750.0, runs=1000, seed=SEED)
    started = time.perf_counter()
    result = run_experiment(
        cfg,
        ("general", "monotone", "no-offload", "otso", "wiffler"),
        "deadline",
        (2.0, 3.0, 4.0, 5.0),
    )
    return result, time.perf_counter() - started


def test_criterion_5_completion_trend(completion_experiment):
    result, elapsed = completion_experiment
    slack = 0.01  # one point of Monte-Carlo resolution at 1000 runs

    for scheme in result.schemes:
        probs = [
            result.metrics[(d, scheme)].completion_probability
            for d in result.sweep_values
        ]
        for lo, hi in zip(probs, probs[1:]):
            assert hi >= lo - slack, (scheme, probs)

    p_general = result.metrics[(2.0, "general")].completion_probability
    p_otso = result.metrics[(2.0, "otso")].completion_probability
    assert p_otso <= p_general - 0.20, (p_general, p_otso)

    p_nooff = result.metrics[(2.0, "no-offload")].completion_probability
    assert abs(p_general - p_nooff) <= 0.03

    _report(
        elapsed < 300.0,
        "criterion 5: completion trend under a stringent deadline",
        f"gap at tightest deadline {p_general - p_otso:.2f}, {elapsed:.0f}s",
    )


def test_criterion_6_cost_dominance(completion_experiment):
    result, _ = completion_experiment
    worst = np.inf
    for d in result.sweep_values:
        base = result.samples[(d, "general")].total_cost
        for scheme in result.schemes:
            if scheme == "general":
                continue
            diff = result.samples[(d, scheme)].total_cost - base
            mean = float(diff.mean())
            se = float(diff.std(ddof=1)) / np.sqrt(diff.size) if diff.size > 1 else 0.0
            # paired comparison: the optimal plan is never significantly worse
            assert mean >= -1.96 * se - 1e-12, (d, scheme, mean, se)
            worst = min(worst, mean)
    _report(
        True,
        "criterion 6: paired cost dominance of the exact planner",
        f"smallest paired mean gap {worst:.3g}",
    )


# --------------------------------------------------------------------------
# 7. Relaxed-deadline payments.
# --------------------------------------------------------------------------


def test_criterion_7_payment_trend():
    cfg = ScenarioConfig(file_mbytes=92.5, runs=1000, seed=SEED)
    result = run_experiment(
        cfg, ("general", "monotone", "no-offload", "otso"), "deadline", (3.0, 4.0, 5.0)
    )
    for d in result.sweep_values:
        m = {s: result.metrics[(d, s)] for s in result.schemes}
        gap = abs(m["general"].mean_payment - m["monotone"].mean_payment)
        ci = min(m["general"].payment_ci, m["monotone"].payment_ci)
        assert gap <= ci, (d, gap, ci)
        assert m["general"].mean_payment <= m["otso"].mean_payment + 1e-12
        assert m["monotone"].mean_payment <= m["otso"].mean_payment + 1e-12
        assert m["otso"].mean_payment <= m["no-offload"].mean_payment + 1e-12
    _report(True, "criterion 7: payment ordering under relaxed deadlines")


# --------------------------------------------------------------------------
# 8. Faster Wi-Fi closes the gap between on-the-spot offloading and the plan.
# --------------------------------------------------------------------------


def test_criterion_8_wifi_rate_convergence():
    cfg = ScenarioConfig(file_mbytes=625.0, deadline_minutes=1.0, runs=1000, seed=SEED)
    rates = (20.0, 60.0, 100.0, 140.0, 180.0)
    result = run_experiment(cfg, ("general", "otso"), "mu_wifi", rates)
    gaps = []
    for mu in rates:
        g = result.metrics[(mu, "general")].completion_probability
        o = result.metrics[(mu, "otso")].completion_probability
        gaps.append(abs(g - o))
    slack = 0.01
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi <= lo + slack, gaps
    assert gaps[-1] < 0.03, gaps
    _report(
        True,
        "criterion 8: on-the-spot offloading converges as Wi-Fi speeds up",
        "gaps " + ", ".join(f"{g:.3f}" for g in gaps),
    )


# --------------------------------------------------------------------------
# 9. Step penalty produces columns with more than one switch.
# --------------------------------------------------------------------------


def test_criterion_9_step_penalty_multiswitch():
    model, spec = multiswitch_demo()
    policy, _ = solve(model, spec)
    max_switches = 0
    for t in range(spec.horizon):
        for l in range(model.num_locations):
            col = policy.actions[t, l]
            switches = int(np.sum(col[1:] != col[:-1]))
            max_switches = max(max_switches, switches)
    _report(
        max_switches > 1,
        "criterion 9: step penalty yields multi-switch columns",
        f"max switches per column {max_switches}",
    )


# --------------------------------------------------------------------------
# 10. The frontier planner's complexity advantage shows up in wall-clock.
# --------------------------------------------------------------------------


def test_criterion_10_complexity_sanity():
    model = grid_demo_model(mu_cellular=900.0, mu_wifi=200.0, price_cellular=7.5e-4)
    spec = osim.ProblemSpec(6000.0, 60, 10.0, osim.QuadraticPenalty(1.0), 1)
    mm = MonotoneModel.from_network_model(model, spec)

    solve(model, spec)  # warm caches
    solve_monotone(mm, spec)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # Best of 3 per planner, with the solves interleaved so that a phase of
    # slower CPU hits both planners rather than only the one timed during it.
    general_times, monotone_times = [], []
    for _ in range(3):
        general_times.append(timed(lambda: solve(model, spec)))
        monotone_times.append(timed(lambda: solve_monotone(mm, spec)))
    t_general = min(general_times)
    t_monotone = min(monotone_times)
    ratio = t_general / t_monotone
    _report(
        t_general < 5.0 and ratio >= 5.0,
        "criterion 10: exact planner < 5 s and frontier planner >= 5x faster",
        f"general {t_general*1e3:.1f} ms, frontier {t_monotone*1e3:.1f} ms, {ratio:.1f}x",
    )
