"""Both planners on generated instances: the decisions-only path against the
full solve, the frontier planner's early stop, and the exact planner with
full-slot billing against the frontier planner, cell for cell, also on the
benchmark's sampled runs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offloadsim import dp, sim
from offloadsim.config import ScenarioConfig
from offloadsim.model import ProblemSpec, QuadraticPenalty
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import (
    edge_flatcost_instances,
    flatcost_instance,
    flatcost_instances,
    general_instances,
    grid_demo_model,
    random_mobility,
)

GENERATED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def assert_exact_decisions_only(model, spec, flat_payment):
    policy, values = dp.solve(model, spec, flat_payment=flat_payment)
    lean, none = dp.solve(model, spec, flat_payment=flat_payment, values=False)
    assert none is None and values is not None
    assert lean.actions.dtype == policy.actions.dtype
    assert lean.actions.shape == policy.actions.shape
    assert lean.actions.tobytes() == policy.actions.tobytes()


def assert_frontier_decisions_only(mm, spec):
    tp, values = solve_monotone(mm, spec)
    lean, none = solve_monotone(mm, spec, values=False)
    assert none is None and values is not None
    assert lean.wifi_locations == tp.wifi_locations == mm.wifi_locations
    assert lean.k_star_idx.shape == tp.k_star_idx.shape
    assert lean.k_star_idx.tobytes() == tp.k_star_idx.tobytes()


@GENERATED
@given(general_instances(), st.booleans())
def test_exact_decisions_only_on_generated_instances(instance, flat_payment):
    assert_exact_decisions_only(*instance, flat_payment)


@GENERATED
@given(flatcost_instances())
def test_frontier_decisions_only_on_generated_instances(instance):
    model, spec = instance
    assert_frontier_decisions_only(MonotoneModel.from_network_model(model, spec), spec)
    assert_exact_decisions_only(model, spec, True)


@GENERATED
@given(flatcost_instances())
def test_exact_flat_planner_matches_frontier_planner(instance):
    model, spec = instance
    tp, frontier_values = solve_monotone(MonotoneModel.from_network_model(model, spec), spec)
    policy, exact_values = dp.solve(model, spec, flat_payment=True)
    np.testing.assert_allclose(frontier_values.values, exact_values.values, rtol=2e-9, atol=0)
    assert np.array_equal(tp.to_policy().actions, policy.actions)


# ``perfbench/run.py``'s workloads at their longest deadline, as (file
# Mbytes, minutes), at its default seed; heuristics-only sweeps the same
# scenario as stringent-deadline and plans nothing.
BENCHMARK_SCENARIOS = {
    "stringent-deadline": (750.0, 5.0),
    "small-file-relaxed": (92.5, 5.0),
    "frontier-long-horizon": (750.0, 10.0),
}


# The planning inputs the ``monotone`` scheme is given in the benchmark's
# sweeps (``sim.means_model`` of sampled runs), not generated networks.
@pytest.mark.parametrize("name", sorted(BENCHMARK_SCENARIOS))
def test_exact_flat_planner_matches_frontier_planner_on_benchmark_runs(name):
    file_mbytes, minutes = BENCHMARK_SCENARIOS[name]
    cfg = ScenarioConfig(file_mbytes=file_mbytes, deadline_minutes=minutes, seed=12345)
    for model, spec, _ in sim.sample_runs(cfg, range(8)):
        mm = sim.means_model(cfg, model, spec)
        tp, _ = solve_monotone(mm, spec)
        policy, _ = dp.solve(mm.to_network_model(), spec, flat_payment=True)
        assert np.array_equal(tp.to_policy().actions, policy.actions), (name, spec.initial_location)


@pytest.mark.parametrize("instance", edge_flatcost_instances())
def test_decisions_only_on_edge_instances(instance):
    model, spec = instance
    assert_exact_decisions_only(model, spec, False)
    assert_exact_decisions_only(model, spec, True)
    assert_frontier_decisions_only(MonotoneModel.from_network_model(model, spec), spec)


def test_decisions_only_keeps_no_value_table():
    model = grid_demo_model(mu_cellular=900.0, mu_wifi=200.0, price_cellular=7.5e-4)
    spec = ProblemSpec(6000.0, 60, 10.0, QuadraticPenalty(1.0), 1)
    mm = MonotoneModel.from_network_model(model, spec)
    table_bytes = (spec.horizon + 1) * model.num_locations * (spec.grid_points + 1) * 8
    for solve, inputs in ((dp.solve, (model, spec)), (solve_monotone, (mm, spec))):
        for values, low, high in ((True, table_bytes, np.inf), (False, 0, table_bytes / 2)):
            tracemalloc.start()
            try:
                solve(*inputs, values=values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert low <= peak < high, (values, peak, table_bytes)


def counted_frontier_solve(mm, spec, values):
    """``solve_monotone`` and the number of ``np.matmul`` calls it made: one
    per epoch whose costs it computed."""
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(None)
        return matmul(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", counting)
        tp, _ = solve_monotone(mm, spec, values=values)
    return tp, len(calls)


def assert_frontier_stop(mm, spec):
    """The decisions-only solve computes epochs back to the first one after
    which no location switches, and only those; the full solve computes
    every epoch.  Returns how many epochs the decisions-only solve skipped."""
    T, N = spec.horizon, spec.grid_points
    full, full_calls = counted_frontier_solve(mm, spec, True)
    lean, lean_calls = counted_frontier_solve(mm, spec, False)
    assert lean.k_star_idx.tobytes() == full.k_star_idx.tobytes()
    assert full_calls == T
    ks = full.k_star_idx
    quiet_after = np.flatnonzero((ks[:, 1:] > N).all(axis=0))  # epoch t + 1 all sentinel
    skipped = int(quiet_after[-1]) + 1 if quiet_after.size else 0
    assert lean_calls == T - skipped
    assert (ks[:, :skipped] == N + 1).all()
    return skipped


@GENERATED
@given(flatcost_instances(max_steps=6, max_slots=40))
def test_frontier_stop_on_generated_long_horizons(instance):
    model, spec = instance
    assert_frontier_stop(MonotoneModel.from_network_model(model, spec), spec)


def test_frontier_stop_cases():
    rng = np.random.default_rng(7)
    cases = {
        # free Wi-Fi clears a small file long before a far deadline
        "stops": flatcost_instance(random_mobility(rng, 4), {2, 4}, 2.0, 1.0, 0.3, 6, 30, 1.0),
        # cellular at full rate cannot clear the file: every epoch switches
        "never stops": flatcost_instance(random_mobility(rng, 4), (), 2.0, 1.0, 0.3, 20, 5, 10.0),
        # no penalty: cellular is never worth its price
        "never switches": flatcost_instance(random_mobility(rng, 4), {1}, 2.0, 1.0, 0.3, 10, 12, 0.0),
    }
    skipped = {}
    for name, (model, spec) in cases.items():
        skipped[name] = assert_frontier_stop(MonotoneModel.from_network_model(model, spec), spec)
    assert 0 < skipped["stops"] < 30 - 1
    assert skipped["never stops"] == 0
    assert skipped["never switches"] == 12 - 1  # only the last epoch is searched
