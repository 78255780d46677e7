"""The horizon-tail identity the sweep harness rests on.

The model is time-homogeneous and charges the penalty only at the
horizon, so backward induction for horizon T computes exactly the last T
epochs of the same induction for any longer horizon.  Both planners must
give those epochs bit for bit, which lets one solve per run serve every
deadline point of a sweep.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from offloadsim import dp
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import flatcost_instances, general_instances

TAIL = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@TAIL
@given(general_instances(), st.integers(1, 8), st.booleans())
def test_exact_planner_tail_identity(instance, extra, flat_payment):
    model, spec = instance
    longer = dataclasses.replace(spec, horizon=spec.horizon + extra)
    policy, values = dp.solve(model, spec, flat_payment=flat_payment)
    long_policy, long_values = dp.solve(model, longer, flat_payment=flat_payment)
    assert policy.actions.tobytes() == long_policy.actions[extra:].tobytes()
    assert values.values.tobytes() == long_values.values[extra:].tobytes()


@TAIL
@given(flatcost_instances(), st.integers(1, 8))
def test_frontier_planner_tail_identity(instance, extra):
    model, spec = instance
    mm = MonotoneModel.from_network_model(model, spec)
    longer = dataclasses.replace(spec, horizon=spec.horizon + extra)
    tp, values = solve_monotone(mm, spec)
    long_tp, long_values = solve_monotone(mm, longer)
    assert tp.k_star_idx.tobytes() == long_tp.k_star_idx[:, extra:].tobytes()
    assert values.values.tobytes() == long_values.values[extra:].tobytes()
