import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offloadsim.baselines import (
    WifflerState,
    no_offload_decide,
    otso_decide,
    wiffler_decide,
    wiffler_means,
    wiffler_observe,
    wiffler_predict,
)
from offloadsim.model import Action, State

from instances import grid_demo_model


def test_no_offload():
    assert no_offload_decide(State(10.0, 1)) is Action.CELLULAR
    assert no_offload_decide(State(10.0, 4)) is Action.CELLULAR  # ignores Wi-Fi
    assert no_offload_decide(State(0.0, 1)) is Action.IDLE


def test_otso():
    model = grid_demo_model()
    assert otso_decide(model, State(10.0, 4)) is Action.WIFI
    assert otso_decide(model, State(10.0, 1)) is Action.CELLULAR
    assert otso_decide(model, State(0.0, 4)) is Action.IDLE


def test_wiffler_predict_empty_history():
    ws = WifflerState(theta=1.0, window=4)
    assert wiffler_predict(ws, 10) == 0.0


def test_wiffler_predict_zero_remaining():
    ws = WifflerState()
    ws.history.extend([])
    assert wiffler_predict(ws, 0) == 0.0


def test_wiffler_predict_mean_formula():
    from offloadsim.baselines import Encounter

    ws = WifflerState(theta=1.0, window=4)
    # four encounters: 5-slot period, one-slot dwell, 20 units/slot
    for _ in range(4):
        ws.history.append(Encounter(inter_meeting_time=5, dwell_slots=1, rate=20.0))
    assert wiffler_predict(ws, 10) == pytest.approx(40.0)


def test_wiffler_observe_builds_encounters():
    model = grid_demo_model(mu_wifi=20.0)
    ws = WifflerState(theta=1.0, window=4)
    # visits: wifi cell 4 at slots 3-4, wifi cell 11 at slot 8
    sequence = [1, 2, 4, 4, 2, 1, 2, 11, 7, 7]
    for t, l in enumerate(sequence, start=1):
        wiffler_observe(ws, model, l, t)
    assert len(ws.history) == 2
    first, second = ws.history
    assert first.inter_meeting_time == 3  # slot 3, measured from the start
    assert first.dwell_slots == 2
    assert first.rate == pytest.approx(20.0)
    assert second.inter_meeting_time == 5  # slots 3 -> 8
    assert second.dwell_slots == 1


def test_wiffler_window_truncates():
    from offloadsim.baselines import Encounter

    ws = WifflerState(theta=1.0, window=2)
    model = grid_demo_model()
    seq = [4, 1, 4, 1, 4, 1, 4, 1]
    for t, l in enumerate(seq, start=1):
        wiffler_observe(ws, model, l, t)
    assert len(ws.history) == 2
    assert all(isinstance(e, Encounter) for e in ws.history)


def test_wiffler_decide_rules():
    from offloadsim.baselines import Encounter

    model = grid_demo_model()
    ws = WifflerState(theta=1.0, window=4)
    assert wiffler_decide(ws, model, State(10.0, 4), 1, 10) is Action.WIFI
    assert wiffler_decide(ws, model, State(0.0, 1), 1, 10) is Action.IDLE
    # predicted capacity 40 over the remaining 10 slots
    for _ in range(4):
        ws.history.append(Encounter(inter_meeting_time=5, dwell_slots=1, rate=20.0))
    assert wiffler_predict(ws, 10) == pytest.approx(40.0)
    assert wiffler_decide(ws, model, State(30.0, 1), 0, 10) is Action.IDLE
    assert wiffler_decide(ws, model, State(50.0, 1), 0, 10) is Action.CELLULAR


def test_wiffler_huge_theta_degenerates_to_otso():
    model = grid_demo_model()
    ws = WifflerState(theta=1e18, window=4)
    rng = np.random.default_rng(0)
    for t in range(1, 40):
        l = int(rng.integers(1, 17))
        k = float(rng.integers(0, 30))
        wiffler_observe(ws, model, l, t)
        assert wiffler_decide(ws, model, State(k, l), t, 40) == otso_decide(
            model, State(k, l)
        )


def test_wiffler_state_validation():
    with pytest.raises(ValueError):
        WifflerState(theta=0.0)
    with pytest.raises(ValueError):
        WifflerState(window=0)


@st.composite
def wiffler_paths(draw):
    """A path over 1-5 locations, each location's Wi-Fi rate (None off
    coverage; no, some or all locations covered) and a window length."""
    L = draw(st.integers(1, 5))
    covered = draw(
        st.one_of(
            st.just(frozenset()),
            st.just(frozenset(range(1, L + 1))),
            st.frozensets(st.integers(1, L)),
        )
    )
    rates = draw(st.lists(st.floats(0.0, 100.0), min_size=L, max_size=L))
    path = draw(st.lists(st.integers(1, L), min_size=1, max_size=40))
    window = draw(st.integers(1, 12))
    return path, [r if l in covered else None for l, r in enumerate(rates, 1)], window


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(wiffler_paths())
# window 1: every new encounter evicts the last
@example(([1, 2, 1, 1, 2, 1, 2, 2, 1, 2], [3.3, None], 1))
# window longer than the encounters seen, and the path ends inside one
@example(([2, 1, 1, 2, 3, 3, 1, 3], [None, 7.1, 0.45], 9))
@example(([1, 2, 2, 1, 1], [None, None], 2))  # no Wi-Fi
@example(([1, 2, 2, 1, 2, 1], [4.0, 2.5], 3))  # all Wi-Fi
def test_wiffler_means_match_stepping(case):
    # the walk's prediction from the means, at every slot and every
    # horizon up to the path length, against observe-then-predict
    path, wifi_rate, window = case
    means = wiffler_means(path, wifi_rate, window)
    assert len(means) == len(path)
    ws = WifflerState(window=window)
    for t, l in enumerate(path, 1):
        ws.observe(t, wifi_rate[l - 1])
        m = means[t - 1]
        for horizon in range(t, len(path) + 1):
            left = horizon - t
            got = (left / m[0]) * m[1] if m is not None and left > 0 else 0.0
            assert got.hex() == wiffler_predict(ws, left).hex(), (t, horizon)
