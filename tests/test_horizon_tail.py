"""The horizon-tail identity the sweep harness rests on.

The model is time-homogeneous and charges the penalty only at the
horizon, so backward induction for horizon T computes exactly the last T
epochs of the same induction for any longer horizon.  Both planners must
give those epochs bit for bit, which lets one solve per run serve every
deadline point of a sweep.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from offloadsim import dp
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    StepPenalty,
    TabulatedPenalty,
)
from offloadsim.threshold import MonotoneModel, solve_monotone

from instances import flatcost_instance

TAIL = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def mobilities(draw, L):
    weights = draw(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=L, max_size=L), min_size=L, max_size=L
        )
    )
    P = np.array(weights)
    return P / P.sum(axis=1, keepdims=True)


@st.composite
def penalties(draw, N):
    kind = draw(st.sampled_from(("quadratic", "step", "tabulated")))
    if kind == "quadratic":
        return QuadraticPenalty(draw(st.floats(0.0, 5.0)))
    if kind == "step":
        return StepPenalty(draw(st.floats(0.0, 50.0)))
    steps = draw(st.lists(st.floats(0.0, 5.0), min_size=N, max_size=N))
    return TabulatedPenalty(tuple(np.concatenate([[0.0], np.cumsum(steps)])), 1.0)


@st.composite
def general_instances(draw):
    """Arbitrary prices, rates and penalty on a unit grid of 0-12 steps."""
    L = draw(st.integers(1, 4))
    N = draw(st.integers(0, 12))
    T = draw(st.integers(1, 6))
    wifi = draw(st.sets(st.integers(1, L)))
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    for l in range(1, L + 1):
        actions = (Action.CELLULAR, Action.WIFI) if l in wifi else (Action.CELLULAR,)
        for a in actions:
            rate[l - 1, a] = draw(st.floats(0.0, 6.5))
            price[l - 1, a] = draw(st.floats(0.0, 2.0))
    model = NetworkModel(L, frozenset(wifi), draw(mobilities(L)), price, rate)
    return model, ProblemSpec(float(N), T, 1.0, draw(penalties(N)))


@st.composite
def flatcost_instances(draw):
    """The frontier planner's regime, Wi-Fi slower or faster than cellular."""
    L = draw(st.integers(1, 5))
    model, spec = flatcost_instance(
        draw(mobilities(L)),
        draw(st.sets(st.integers(1, L))),
        draw(st.floats(0.0, 6.0)),
        draw(st.floats(0.0, 8.0)),
        draw(st.floats(0.0, 1.5)),
        draw(st.integers(0, 20)),
        draw(st.integers(1, 8)),
        draw(st.floats(0.0, 4.0)),
    )
    return MonotoneModel.from_network_model(model, spec), spec


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
    mm, spec = instance
    longer = dataclasses.replace(spec, horizon=spec.horizon + extra)
    tp, values = solve_monotone(mm, spec)
    long_tp, long_values = solve_monotone(mm, longer)
    assert tp.k_star_idx.tobytes() == long_tp.k_star_idx[:, extra:].tobytes()
    assert values.values.tobytes() == long_values.values[extra:].tobytes()
