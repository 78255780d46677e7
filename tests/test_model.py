import dataclasses
import math
import warnings

import numpy as np
import pytest

from offloadsim.errors import DomainError
from offloadsim.model import (
    Action,
    NetworkModel,
    PenaltyFn,
    ProblemSpec,
    QuadraticPenalty,
    State,
    StepPenalty,
    TabulatedPenalty,
    admissible_actions,
    grid_index,
    is_convex_on_grid,
    next_file_size,
    payment,
    penalty_on_grid,
    share_mobility,
    slot_payment,
    transfer_steps,
    transition_dist,
)
from offloadsim.sim import _shared_grid_mobility, build_grid_mobility
from offloadsim.threshold import MonotoneModel

from instances import grid_demo_model, random_general_instance


def simple_model(wifi=frozenset({2}), L=2, rate_cell=900.0, rate_wifi=200.0, price_cell=7.5e-4):
    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = rate_cell
    price[:, Action.CELLULAR] = price_cell
    for l in wifi:
        rate[l - 1, Action.WIFI] = rate_wifi
    mobility = np.full((L, L), 1.0 / L)
    return NetworkModel(L, wifi, mobility, price, rate)


def raised(error, call, *args):
    """The message of the ``error`` that ``call(*args)`` raises."""
    with pytest.raises(error) as exc:
        call(*args)
    return str(exc.value)


def test_admissible_actions_wifi_grid():
    model = grid_demo_model()
    assert admissible_actions(model, 4) == (Action.IDLE, Action.CELLULAR, Action.WIFI)
    assert admissible_actions(model, 1) == (Action.IDLE, Action.CELLULAR)


def test_admissible_actions_no_wifi_anywhere():
    model = simple_model(wifi=frozenset())
    assert admissible_actions(model, 1) == (Action.IDLE, Action.CELLULAR)


def test_admissible_actions_bad_location():
    model = simple_model()
    with pytest.raises(DomainError):
        admissible_actions(model, 0)
    with pytest.raises(DomainError):
        admissible_actions(model, 3)


def test_payment_min_clamp_and_price_conversion():
    # 100 Mbit left, 900 Mbit/slot, 6 $/Gbyte = 6/8000 $/Mbit
    model = simple_model(price_cell=6.0 / 8000.0)
    spec = ProblemSpec(200.0, 3, 1.0, QuadraticPenalty(1.0))
    got = payment(model, spec, State(100.0, 1), Action.CELLULAR)
    assert got == pytest.approx(0.075, rel=1e-12)


def test_payment_idle_and_empty_file_are_free():
    model = simple_model()
    spec = ProblemSpec(100.0, 3, 1.0, QuadraticPenalty(1.0))
    assert payment(model, spec, State(50.0, 1), Action.IDLE) == 0.0
    assert payment(model, spec, State(0.0, 1), Action.CELLULAR) == 0.0


def test_payment_rejects_inadmissible_action():
    model = simple_model()
    spec = ProblemSpec(100.0, 3, 1.0, QuadraticPenalty(1.0))
    with pytest.raises(DomainError):
        payment(model, spec, State(50.0, 1), Action.WIFI)


def test_slot_payment_ignores_remainder():
    model = simple_model(price_cell=0.001)
    assert slot_payment(model, 1, Action.CELLULAR) == pytest.approx(0.9)
    assert slot_payment(model, 1, Action.IDLE) == 0.0


def test_penalty_families():
    quad = ProblemSpec(20.0, 3, 1.0, QuadraticPenalty(1.0))
    assert quad.penalty(10.0) == 100.0
    assert quad.penalty(0.0) == 0.0
    step = ProblemSpec(20.0, 3, 10.0, StepPenalty(100000.0))
    assert step.penalty(10.0) == 100000.0
    assert step.penalty(0.0) == 0.0
    below = math.nextafter(0.0, -1.0)
    message = raised(DomainError, QuadraticPenalty, below)
    assert message == "quadratic penalty coefficient must be >= 0"
    assert raised(DomainError, StepPenalty, below) == "step penalty amount must be >= 0"
    assert QuadraticPenalty(0.0)(5.0) == 0.0 and StepPenalty(0.0)(5.0) == 0.0


def test_penalty_off_grid_rejected():
    spec = ProblemSpec(20.0, 3, 10.0, QuadraticPenalty(1.0))
    with pytest.raises(DomainError):
        spec.index_of(5.0)


def test_penalty_non_decreasing_on_grid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, spec = random_general_instance(rng)
        vals = [spec.penalty(k) for k in spec.grid_values]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tabulated_penalty_validation():
    with pytest.raises(DomainError):
        TabulatedPenalty((1.0, 2.0), 1.0)  # must start at zero
    with pytest.raises(DomainError):
        TabulatedPenalty((0.0, 2.0, 1.0), 1.0)  # must be non-decreasing
    message = raised(DomainError, TabulatedPenalty, (), 1.0)
    assert message == "tabulated penalty needs at least the value at 0"
    for step in (0.0, -1.0):
        message = raised(DomainError, TabulatedPenalty, (0.0, 1.0), step)
        assert message == "tabulated penalty grid step must be > 0"
    assert TabulatedPenalty((0.0,), math.nextafter(0.0, 1.0))(0.0) == 0.0
    pen = TabulatedPenalty((0.0, 1.0, 5.0), 1.0)
    assert pen(2.0) == 5.0
    with pytest.raises(DomainError):
        pen(3.0)
    # a grid past the table's last size, or finer than the table, reads
    # its first bad size through grid_index
    message = raised(DomainError, penalty_on_grid, pen, np.array([0.0, 3.0]))
    assert message == "size 3.0 outside [0, 2.0]"
    message = raised(DomainError, penalty_on_grid, pen, np.array([0.0, 0.5, 1.0]))
    assert message == "size 0.5 is not on the 1.0 grid"


def test_convexity_scan():
    grid = np.arange(21) * 1.0
    assert is_convex_on_grid(penalty_on_grid(QuadraticPenalty(2.0), grid))
    assert not is_convex_on_grid(penalty_on_grid(StepPenalty(10.0), grid))
    assert is_convex_on_grid(penalty_on_grid(StepPenalty(10.0), grid[:2]))


def test_penalty_array_form_matches_scalar_loop():
    steps = np.random.default_rng(3).uniform(0.0, 2.0, size=40)
    families = [
        QuadraticPenalty(0.7),
        QuadraticPenalty(3),
        StepPenalty(5.0),
        StepPenalty(0.0),
        TabulatedPenalty(tuple(np.concatenate([[0.0], np.cumsum(steps)])), 0.1),
    ]
    for step in (1.0, 0.1, 10.0):
        grid = np.arange(41) * step
        for pen in families:
            if isinstance(pen, TabulatedPenalty) and pen.grid_step != step:
                continue
            reference = PenaltyFn.on_grid(pen, grid)  # the scalar loop
            assert pen.on_grid(grid).tobytes() == reference.tobytes()
            assert penalty_on_grid(pen, grid).tobytes() == reference.tobytes()


def test_next_file_size_clamp_and_quantization():
    spec1 = ProblemSpec(20.0, 3, 1.0, QuadraticPenalty(1.0))
    assert next_file_size(spec1, 20.0, 35.0) == 0.0
    assert next_file_size(spec1, 20.0, 2.0) == 18.0
    spec10 = ProblemSpec(6000.0, 3, 10.0, QuadraticPenalty(1.0))
    assert next_file_size(spec10, 6000.0, 193.0) == 5810.0


def test_next_file_size_monotone():
    spec = ProblemSpec(30.0, 3, 1.0, QuadraticPenalty(1.0))
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = float(rng.integers(0, 31))
        a, b = sorted(rng.uniform(0.0, 40.0, size=2))
        assert next_file_size(spec, k, b) <= next_file_size(spec, k, a)
        if k + 1 <= 30:
            assert next_file_size(spec, k + 1, a) >= next_file_size(spec, k, a)


def test_transition_dist_grid_probabilities():
    model = grid_demo_model()
    spec = ProblemSpec(20.0, 3, 1.0, QuadraticPenalty(1.0))
    interior = dict(
        ((s.l, s.k), p) for s, p in transition_dist(model, spec, State(5.0, 7), Action.IDLE)
    )
    assert interior[(7, 5.0)] == pytest.approx(0.6)
    for nb in (3, 6, 8, 11):
        assert interior[(nb, 5.0)] == pytest.approx(0.1)
    corner = dict(
        ((s.l, s.k), p) for s, p in transition_dist(model, spec, State(5.0, 1), Action.IDLE)
    )
    assert corner[(1, 5.0)] == pytest.approx(0.6)
    for nb in (2, 5):
        assert corner[(nb, 5.0)] == pytest.approx(0.2)


def test_transition_dist_single_location():
    rate = np.zeros((1, 3))
    price = np.zeros((1, 3))
    rate[0, Action.CELLULAR] = 1.0
    model = NetworkModel(1, frozenset(), np.array([[1.0]]), price, rate)
    spec = ProblemSpec(5.0, 3, 1.0, QuadraticPenalty(1.0))
    dist = transition_dist(model, spec, State(5.0, 1), Action.CELLULAR)
    assert dist == [(State(4.0, 1), 1.0)]


def test_transition_dist_masses_and_size_monotone():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model, spec = random_general_instance(rng)
        l = int(rng.integers(1, model.num_locations + 1))
        k = float(rng.integers(0, spec.grid_points + 1)) * spec.grid_step
        for a in admissible_actions(model, l):
            dist = transition_dist(model, spec, State(k, l), a)
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)
            assert all(s.k <= k for s, _ in dist)
            assert payment(model, spec, State(k, l), a) >= 0.0


def test_network_model_validation():
    L = 2
    good_rate = np.zeros((L, 3))
    good_price = np.zeros((L, 3))
    bad_rows = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(DomainError, match="sums to"):
        NetworkModel(L, frozenset(), bad_rows, good_price, good_rate)
    bad_idle = good_price.copy()
    bad_idle[0, Action.IDLE] = 1.0
    with pytest.raises(DomainError, match="idle"):
        NetworkModel(L, frozenset(), np.eye(L), bad_idle, good_rate)
    with pytest.raises(DomainError, match="location 5 out of range 1..2"):
        NetworkModel(L, frozenset({5}), np.eye(L), good_price, good_rate)
    with pytest.raises(DomainError, match="non-negative"):
        NetworkModel(L, frozenset(), np.eye(L), good_price, good_rate - 1.0)
    empty = (np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((0, 3)))
    assert raised(DomainError, NetworkModel, 0, frozenset(), *empty) == "need at least one location"
    for name, shape in (("price", (2, 2)), ("rate", (3, 3))):
        tables = {"price": good_price, "rate": good_rate, name: np.zeros(shape)}
        message = raised(DomainError, NetworkModel, L, frozenset(), np.eye(L), *tables.values())
        assert message == f"{name} must have shape (2, 3), got {shape}"


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
def test_share_mobility_rejects_a_matrix_that_is_not_square(shape):
    message = raised(DomainError, share_mobility, np.full(shape, 1.0 / 3))
    assert message == f"mobility must be a square matrix of at least 1x1, got {shape}"


@pytest.mark.parametrize("size", [math.inf, -math.inf, math.nan])
def test_grid_index_rejects_a_non_finite_size(size):
    assert raised(DomainError, grid_index, size, 10.0, 3) == f"size {size!r} outside [0, 30.0]"


def test_transition_dist_rejects_an_inadmissible_action():
    spec = ProblemSpec(20.0, 3, 10.0, QuadraticPenalty(1.0))
    wifi_off_coverage = (simple_model(), spec, State(10.0, 1), Action.WIFI)
    message = raised(DomainError, transition_dist, *wifi_off_coverage)
    assert message == "action WIFI not admissible at location 1"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_network_model_rejects_non_finite(bad):
    L = 2
    rate = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = 1.0
    # all-NaN mobility passes every comparison-based check
    with pytest.raises(DomainError, match="mobility entries must be finite"):
        NetworkModel(L, frozenset(), np.full((L, L), bad), np.zeros((L, 3)), rate)
    for name in ("price", "rate"):
        arrays = {"price": np.zeros((L, 3)), "rate": rate.copy()}
        arrays[name][1, Action.CELLULAR] = bad
        with pytest.raises(DomainError, match=f"{name} entries must be finite"):
            NetworkModel(L, frozenset(), np.eye(L), arrays["price"], arrays["rate"])


@pytest.mark.parametrize(
    "defect, message",
    [("nan", "must be finite"), ("negative", "must be non-negative"), ("row sum", "row 2 sums to")],
)
def test_caller_mobility_is_checked_after_a_shared_grid_of_its_shape(defect, message):
    shared = _shared_grid_mobility(2, 2, 0.5)
    L = 4
    rate = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = 1.0
    # the shared grid, checked once when shared, in use by both models
    NetworkModel(L, frozenset({1}), shared, np.zeros((L, 3)), rate)
    MonotoneModel(L, frozenset({1}), shared, 1.0, 0.5, 1.0, QuadraticPenalty(1.0))
    bad = np.array(shared)  # a caller's writable copy, then broken
    if defect == "nan":
        bad[0, 1] = math.nan
    elif defect == "negative":
        bad[0, 0] = -0.25
    else:
        bad[1, 1] += 0.01
    with pytest.raises(DomainError, match=message):
        NetworkModel(L, frozenset({1}), bad, np.zeros((L, 3)), rate)
    with pytest.raises(DomainError, match=message):
        MonotoneModel(L, frozenset({1}), bad, 1.0, 0.5, 1.0, QuadraticPenalty(1.0))
    with pytest.raises(DomainError, match=message):
        share_mobility(bad)
    # a shared matrix is still checked against the model's location count
    with pytest.raises(DomainError, match="mobility must be 9x9"):
        NetworkModel(9, frozenset(), shared, np.zeros((9, 3)), np.zeros((9, 3)))


def test_shared_mobility_is_read_only_and_never_a_callers_view():
    base = build_grid_mobility(2, 3, 0.4)
    view = share_mobility(base[:])
    assert view is not base and not view.flags.writeable
    assert base.flags.writeable  # the caller's array is left alone
    owned = build_grid_mobility(2, 3, 0.4)
    assert share_mobility(owned) is owned and not owned.flags.writeable


def test_transfer_steps_floors_each_transfer_on_the_grid():
    spec = ProblemSpec(100.0, 3, 0.1, QuadraticPenalty(1.0))
    n = np.arange(0, 5000)
    drawn = np.random.default_rng(3).uniform(-5.0, 500.0, 2000)
    fraction = drawn / spec.grid_step % 1.0
    assert ((fraction > 1e-6) & (fraction < 1 - 1e-6)).all()  # clear of the grid slack
    transfers = np.concatenate(
        [
            drawn,
            n * spec.grid_step,
            (n - 1e-10) * spec.grid_step,  # within the grid slack: rounds up
            (n - 1e-8) * spec.grid_step,  # outside it: one step fewer
            [0.0, -0.0, -1.0, 5e-324, math.nan, -math.inf],
        ]
    ).reshape(-1, 2)
    expected = np.concatenate(
        [np.maximum(np.floor(drawn / spec.grid_step), 0), n, n, np.maximum(n - 1, 0), np.zeros(6)]
    ).astype(int).tolist()
    steps = transfer_steps(spec, transfers)
    assert steps.dtype == np.int64 and steps.shape == transfers.shape
    assert steps.ravel().tolist() == expected
    one_by_one = [transfer_steps(spec, x) for x in transfers.ravel().tolist()]
    assert one_by_one == expected and {type(k) for k in one_by_one} == {int}
    for too_many in (1e30, math.inf):
        for transfer in (too_many, np.array([too_many])):
            with pytest.raises(DomainError, match="too many grid steps"):
                transfer_steps(spec, transfer)


def test_problem_spec_rejects_non_finite():
    # these used to escape as OverflowError (ceil of inf) and ValueError (of nan)
    for size in (math.inf, math.nan):
        with pytest.raises(DomainError, match="file size"):
            ProblemSpec(size, 3, 10.0, QuadraticPenalty(1.0))
    for step in (math.inf, math.nan):
        with pytest.raises(DomainError, match="grid step"):
            ProblemSpec(10.0, 3, step, QuadraticPenalty(1.0))


def test_problem_spec_rounds_size_up_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = ProblemSpec(95.0, 3, 10.0, QuadraticPenalty(1.0))
    assert spec.file_size == 100.0
    assert any("rounded up" in str(w.message) for w in caught)


# The warning used to name ``<string>:8``, the ``__init__`` that dataclass
# generates, and the CLI printed that line.
def test_problem_spec_rounding_warning_names_the_code_that_built_the_spec():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ProblemSpec(10.4, 3, 10.0, QuadraticPenalty(1.0))
    (w,) = caught
    assert str(w.message) == "file size 10.4 rounded up to 20.0 (next multiple of 10.0)"
    assert w.filename == __file__


def test_problem_spec_exact_multiple_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = ProblemSpec(740.0, 3, 10.0, QuadraticPenalty(1.0))
    assert spec.file_size == 740.0
    assert not caught


def test_problem_spec_rounding_is_idempotent():
    # 26,860,349 points: the float spacing of the grid index there is above
    # the absolute slack of the rounding, which once added a step here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = ProblemSpec(2686034.8901427463, 1, 0.1, QuadraticPenalty(1.0))
    assert spec.grid_points == 26_860_349
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = dataclasses.replace(spec)
        longer = dataclasses.replace(spec, horizon=5)
    assert not caught
    assert again.file_size == longer.file_size == spec.file_size
    assert again.grid_points == 26_860_349


def test_problem_spec_zero_size_allowed():
    spec = ProblemSpec(0.0, 3, 10.0, QuadraticPenalty(1.0))
    assert spec.grid_points == 0
    assert list(spec.grid_values) == [0.0]


def test_problem_spec_validation():
    with pytest.raises(DomainError):
        ProblemSpec(10.0, 0, 1.0, QuadraticPenalty(1.0))
    with pytest.raises(DomainError):
        ProblemSpec(10.0, 3, 0.0, QuadraticPenalty(1.0))
    with pytest.raises(DomainError):
        ProblemSpec(-1.0, 3, 1.0, QuadraticPenalty(1.0))
    for horizon in (2.5, 2.0):
        with pytest.raises(DomainError) as exc:
            ProblemSpec(10.0, horizon, 1.0, QuadraticPenalty(1.0))
        assert str(exc.value) == f"horizon must be an integer, got {horizon!r}"
    with pytest.raises(DomainError) as exc:
        ProblemSpec(1e300, 5, 1e-300, QuadraticPenalty(1.0))
    assert str(exc.value) == "file size 1e+300 is not a finite number of grid steps"
    assert ProblemSpec(10.0, np.int64(3), 1.0, QuadraticPenalty(1.0)).grid_points == 10


def test_mobility_row_tolerance():
    row = np.array([[0.6 + 5e-10, 0.4], [0.5, 0.5]])
    model = NetworkModel(2, frozenset(), row, np.zeros((2, 3)), np.zeros((2, 3)))
    assert model.num_locations == 2


def test_grid_mobility_edge_cell_share():
    P = build_grid_mobility(4, 4, 0.6)
    # cell 2 (0-based 1) is an edge cell with 3 neighbours
    assert P[1, 1] == pytest.approx(0.6)
    assert P[1, 0] == pytest.approx(0.4 / 3)
    assert np.allclose(P.sum(axis=1), 1.0)
