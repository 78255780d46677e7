"""Random and fixed instance builders shared by the test modules, and the
hypothesis strategies that generate instances."""

import dataclasses

import numpy as np
from hypothesis import strategies as st

from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    QuadraticPenalty,
    StepPenalty,
    TabulatedPenalty,
)
from offloadsim.sim import build_grid_mobility
from offloadsim.threshold import MonotoneModel


def random_mobility(rng, L):
    return rng.dirichlet(np.ones(L), size=L)


def random_general_instance(rng):
    """Small instance with arbitrary prices/rates and a random penalty,
    sized for the brute-force oracle."""
    L = int(rng.integers(1, 4))
    T = int(rng.integers(1, 6))
    N = int(rng.integers(1, 6))
    sigma = 1.0
    wifi = frozenset(l + 1 for l in range(L) if rng.random() < 0.5)

    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = rng.uniform(0.0, 6.5, size=L)
    price[:, Action.CELLULAR] = rng.uniform(0.05, 2.0, size=L)
    for l in wifi:
        rate[l - 1, Action.WIFI] = rng.uniform(0.0, 6.5)
        price[l - 1, Action.WIFI] = rng.uniform(0.0, 0.6)

    kind = rng.integers(0, 3)
    if kind == 0:
        pen = QuadraticPenalty(rng.uniform(0.1, 5.0))
    elif kind == 1:
        pen = StepPenalty(rng.uniform(1.0, 50.0))
    else:
        steps = rng.uniform(0.0, 5.0, size=N)
        pen = TabulatedPenalty(tuple(np.concatenate([[0.0], np.cumsum(steps)])), sigma)

    model = NetworkModel(
        num_locations=L,
        wifi_locations=wifi,
        mobility=random_mobility(rng, L),
        price=price,
        rate=rate,
    )
    spec = ProblemSpec(
        file_size=N * sigma,
        horizon=T,
        grid_step=sigma,
        penalty=pen,
        initial_location=int(rng.integers(1, L + 1)),
    )
    return model, spec


def flatcost_instance(mobility, wifi, mu1, mu2, p1, N, T, coefficient, initial_location=1):
    """Instance in the threshold planner's regime from explicit parameters:
    free Wi-Fi at rate ``mu2``, cellular at rate ``mu1`` and unit price
    ``p1`` everywhere, an ``N``-step file on a unit grid and a quadratic
    penalty."""
    L = len(mobility)
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = mu1
    price[:, Action.CELLULAR] = p1
    for l in wifi:
        rate[l - 1, Action.WIFI] = mu2

    model = NetworkModel(
        num_locations=L,
        wifi_locations=frozenset(wifi),
        mobility=mobility,
        price=price,
        rate=rate,
    )
    spec = ProblemSpec(
        file_size=float(N),
        horizon=T,
        grid_step=1.0,
        penalty=QuadraticPenalty(coefficient),
        initial_location=initial_location,
    )
    return model, spec


def random_flatcost_instance(rng, wifi_slower=True, max_locations=6):
    """Instance meeting the threshold planner's preconditions: free Wi-Fi,
    location-independent prices and rates, convex quadratic penalty."""
    L = int(rng.integers(2, max_locations + 1))
    T = int(rng.integers(3, 13))
    N = int(rng.integers(4, 31))
    wifi = [l + 1 for l in range(L) if rng.random() < 0.5]
    mu1 = rng.uniform(0.5, 6.0)
    mu2 = rng.uniform(0.2, mu1) if wifi_slower else rng.uniform(mu1, 8.0)
    p1 = rng.uniform(0.05, 1.5)
    mobility = random_mobility(rng, L)
    coefficient = rng.uniform(0.05, 4.0)
    l0 = int(rng.integers(1, L + 1))
    return flatcost_instance(mobility, wifi, mu1, mu2, p1, N, T, coefficient, l0)


def single_class_flatcost_instance(rng, all_wifi):
    """Flat-cost instance whose locations all share one coverage class."""
    L = int(rng.integers(2, 5))
    T = int(rng.integers(3, 10))
    N = int(rng.integers(4, 25))
    wifi = range(1, L + 1) if all_wifi else ()
    mu1 = rng.uniform(0.5, 6.0)
    mu2 = rng.uniform(0.2, mu1)
    p1 = rng.uniform(0.05, 1.5)
    mobility = random_mobility(rng, L)
    coefficient = rng.uniform(0.05, 4.0)
    l0 = int(rng.integers(1, L + 1))
    return flatcost_instance(mobility, wifi, mu1, mu2, p1, N, T, coefficient, l0)


def edge_flatcost_instances():
    """Flat-cost instances at the edges of the size axis, of coverage and of
    the horizon, and with a tabulated penalty."""
    rng = np.random.default_rng(7)
    cases = [
        # one cellular slot clears the file (d1 > N)
        flatcost_instance(random_mobility(rng, 3), {2}, 9.0, 2.0, 0.3, 6, 5, 1.0),
        # the Wi-Fi step exceeds the file as well (d2 > N)
        flatcost_instance(random_mobility(rng, 3), {1, 3}, 12.0, 8.0, 0.3, 6, 5, 1.0),
        # no location has Wi-Fi
        flatcost_instance(random_mobility(rng, 4), (), 2.5, 1.0, 0.4, 20, 8, 0.5),
        # every location has Wi-Fi
        flatcost_instance(random_mobility(rng, 4), {1, 2, 3, 4}, 3.0, 1.5, 0.2, 20, 8, 0.5),
        # Wi-Fi faster than cellular
        flatcost_instance(random_mobility(rng, 4), {2, 4}, 2.0, 5.0, 0.4, 20, 8, 0.5),
        # an empty file
        flatcost_instance(random_mobility(rng, 3), {1}, 2.0, 1.0, 0.3, 0, 4, 1.0),
        # a single slot
        flatcost_instance(random_mobility(rng, 3), {2}, 2.0, 1.0, 0.3, 10, 1, 1.0),
    ]
    # a tabulated penalty with equal increments
    model, spec = flatcost_instance(random_mobility(rng, 3), {1, 3}, 2.0, 1.0, 0.5, 6, 5, 0.0)
    tabulated = TabulatedPenalty((0.0, 1.0, 2.0, 4.0, 6.0, 9.0, 12.0), 1.0)
    return cases + [(model, dataclasses.replace(spec, penalty=tabulated))]


def grid_demo_model(mu_cellular=2.0, mu_wifi=1.0, price_cellular=0.5):
    """4x4 sticky-walk network with four Wi-Fi cells and uniform rates."""
    L = 16
    wifi = frozenset({4, 11, 13, 16})
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = mu_cellular
    price[:, Action.CELLULAR] = price_cellular
    for l in wifi:
        rate[l - 1, Action.WIFI] = mu_wifi
    return NetworkModel(
        num_locations=L,
        wifi_locations=wifi,
        mobility=build_grid_mobility(4, 4, 0.6),
        price=price,
        rate=rate,
    )


def threshold_demo():
    """Structured scenario with a clean size/time frontier: 20-step file,
    20 slots, strong quadratic penalty, unit cellular slot cost."""
    model = grid_demo_model()
    spec = ProblemSpec(
        file_size=20.0,
        horizon=20,
        grid_step=1.0,
        penalty=QuadraticPenalty(10.0),
        initial_location=1,
    )
    return model, spec


def multiswitch_demo():
    """Step-penalty scenario with location-dependent rates where columns
    of the optimal map switch more than once."""
    L = 16
    wifi = frozenset({4, 11, 13, 16})
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    for l in range(1, L + 1):
        rate[l - 1, Action.CELLULAR] = 3.1 if l in wifi else 2.1
        price[l - 1, Action.CELLULAR] = 0.5
    for l in wifi:
        rate[l - 1, Action.WIFI] = 2.1
    model = NetworkModel(
        num_locations=L,
        wifi_locations=wifi,
        mobility=build_grid_mobility(4, 4, 0.6),
        price=price,
        rate=rate,
    )
    spec = ProblemSpec(
        file_size=20.0,
        horizon=20,
        grid_step=1.0,
        penalty=StepPenalty(100000.0),
        initial_location=1,
    )
    return model, spec


def monotone_view(model, spec):
    return MonotoneModel.from_network_model(model, spec)


# Hypothesis strategies


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
def general_instances(draw, max_steps=12):
    """Arbitrary prices, rates and penalty on a unit grid of 0 to
    ``max_steps`` steps, with 1-4 locations and 1-6 slots."""
    L = draw(st.integers(1, 4))
    N = draw(st.integers(0, max_steps))
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


def _amounts(hi):
    """Zero, a whole number (exact ties are likely between these) or a float
    in (0.01, hi]."""
    return st.one_of(
        st.just(0.0), st.integers(1, max(int(hi), 1)).map(float), st.floats(0.01, hi)
    )


@st.composite
def convex_penalties(draw, N):
    """Penalties convex on a unit grid of ``N`` steps: quadratic, zero, or a
    table whose increments never shrink (equal increments included)."""
    kind = draw(st.sampled_from(("quadratic", "zero", "tabulated")))
    if kind == "quadratic":
        return QuadraticPenalty(draw(_amounts(5.0)))
    if kind == "zero":
        return QuadraticPenalty(0.0)
    steps = sorted(draw(st.lists(_amounts(5.0), min_size=N, max_size=N)))
    return TabulatedPenalty(tuple(np.concatenate([[0.0], np.cumsum(steps)])), 1.0)


@st.composite
def flatcost_instances(draw, max_steps=20, max_slots=8):
    """The frontier planner's regime on a unit grid of 0 to ``max_steps``
    steps, with 1-5 locations, 1 to ``max_slots`` slots, any Wi-Fi set and
    Wi-Fi slower or faster than cellular.  Ties are made likely: rates,
    price and penalty are often whole numbers or zero, and a slot's
    transfer can exceed the file."""
    # The horizon is drawn first and evenly over the slot counts: hypothesis
    # often gives the last draws of an example their minimum, which would
    # make many instances a single slot.
    T = draw(st.sampled_from(range(1, max_slots + 1)))
    L = draw(st.integers(1, 5))
    N = draw(st.integers(0, max_steps))
    model, spec = flatcost_instance(
        draw(mobilities(L)),
        draw(st.sets(st.integers(1, L))),
        draw(_amounts(N + 3)),
        draw(_amounts(N + 3)),
        draw(_amounts(2.0)),
        N,
        T,
        0.0,
    )
    return model, dataclasses.replace(spec, penalty=draw(convex_penalties(N)))
