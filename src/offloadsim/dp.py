"""Exact finite-horizon planner.

Backward induction over the (time x remaining-size x location) lattice
produces the full decision table and the expected-cost table.  Work per
epoch is one expectation against the mobility chain plus one action-value
row per (location, action), so the total cost grows with
``horizon * locations * grid points * actions``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import (
    MAX_LATTICE_CELLS,
    Action,
    NetworkModel,
    ProblemSpec,
    admissible_actions,
    check_location,
    grid_index,
    in_range,
    penalty_on_grid,
    transfer_steps,
)

# Equally cheap actions resolve to free progress first, then paid progress,
# then idling.  Ties are common, not exotic: wherever transmission order
# cannot change the total paid (e.g. two paid slots are needed no matter
# what), "send now" and "wait" cost exactly the same.  Preferring Wi-Fi over
# cellular and cellular over idle keeps every policy column in threshold
# form (the location's free action up to one switch point, cellular after),
# which is how the frontier-based planner reads its tables; other orders let
# tied cells flip back and forth along the size axis.
_PREFERENCE = (Action.WIFI, Action.CELLULAR, Action.IDLE)

# An action displaces a preferred one only when strictly cheaper beyond this
# relative margin.  Exact ties in real arithmetic land within a few ulp of
# each other in floating point; without the margin they would resolve
# arbitrarily from cell to cell.  Stored values are exact minima regardless.
TIE_REL_TOL = 1e-9


def write_table(path, header, shape, row) -> None:
    """Write a table as CSV: ``header``, then ``row(*i)`` for every index
    ``i`` of an array of ``shape``, in C order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(itertools.starmap(row, itertools.product(*map(range, shape))))


def check_lattice(spec: ProblemSpec, num_locations: int) -> None:
    """Both planners' input check: ``spec`` starts at one of ``num_locations``
    locations, and its whole cost lattice fits ``MAX_LATTICE_CELLS``."""
    check_location(spec.initial_location, num_locations, "initial_location")
    cells = (spec.horizon + 1) * (spec.grid_points + 1) * num_locations
    if cells > MAX_LATTICE_CELLS:
        raise ResourceLimitError(
            f"value lattice needs {cells} cells ({cells * 8} bytes), "
            f"budget is {MAX_LATTICE_CELLS} cells"
        )


def cost_lattice(spec: ProblemSpec, num_locations: int, values: bool) -> np.ndarray:
    """Both planners' cost buffer ``v``, epoch ``t`` at ``v[t % len(v)]``:
    every epoch's costs, or with ``values=False`` only the two being used,
    with the terminal penalty filled in.  The whole lattice must fit the
    budget either way (``check_lattice``), checked before any allocation."""
    check_lattice(spec, num_locations)
    T, N = spec.horizon, spec.grid_points
    m = T + 1 if values else 2
    v = np.empty((m, num_locations, N + 1))
    v[T % m] = penalty_on_grid(spec.penalty, spec.grid_values)
    return v


def _cell(table: np.ndarray, t: int, k: float, l: int, grid_step: float) -> tuple:
    """The index of epoch ``t``, size ``k`` and location ``l`` in a table
    stored as ``table[t-1, l-1, k/grid_step]``, its shape the only statement
    of the epochs, locations and grid points it covers.  The epoch, the
    location and the size are checked in that order, each with its own
    :class:`DomainError`; a non-integral epoch is outside the range, and one
    that is no number is refused by the number rule."""
    epochs, num_locations, width = table.shape
    if not in_range(t, 1, epochs, "epoch") or t != int(t):
        raise DomainError(f"epoch {t} outside 1..{epochs}")
    i = check_location(l, num_locations) - 1
    return int(t) - 1, i, grid_index(k, grid_step, width - 1)


@dataclass(frozen=True)
class ValueTable:
    """Expected cost-to-go ``value(t, k, l)`` for epochs 1..T+1.

    Row T+1 holds the terminal penalty.  Internally stored as
    ``values[t-1, l-1, k/step]``.
    """

    values: np.ndarray
    grid_step: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def value(self, t: int, k: float, l: int) -> float:
        return float(self.values[_cell(self.values, t, k, l, self.grid_step)])

    def write_csv(self, path) -> None:
        def row(t, l, n):
            return t + 1, n * self.grid_step, l + 1, repr(float(self.values[t, l, n]))

        write_table(path, ("t", "k", "l", "value"), self.values.shape, row)


@dataclass(frozen=True)
class Policy:
    """Decision table ``action(t, k, l)`` for epochs 1..T.

    At zero remaining size the stored decision is always IDLE.
    """

    actions: np.ndarray
    grid_step: float

    def __post_init__(self):
        self.actions.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    def action(self, t: int, k: float, l: int) -> Action:
        return Action(int(self.actions[_cell(self.actions, t, k, l, self.grid_step)]))

    def write_csv(self, path) -> None:
        def row(t, l, n):
            return t + 1, n * self.grid_step, l + 1, int(self.actions[t, l, n])

        write_table(path, ("t", "k", "l", "action"), self.actions.shape, row)


def solve(
    model: NetworkModel,
    spec: ProblemSpec,
    *,
    flat_payment: bool = False,
    values: bool = True,
):
    """Compute the optimal decision table and cost table by backward induction.

    Returns ``(Policy, ValueTable)``.  ``flat_payment`` switches the
    cellular payment to the full-slot approximation (the cost model the
    threshold planner uses), which makes the two planners comparable
    cell by cell.  With ``values=False`` only two epochs of costs are kept
    (the one being filled and the one after it) and the table is returned
    as None; the decisions are the same, computed by the same arithmetic.
    """
    L = model.num_locations
    N = spec.grid_points
    T = spec.horizon
    v = cost_lattice(spec, L, values)
    m = len(v)  # epoch t is stored at v[t % m]
    grid = spec.grid_values
    delta = np.zeros((T, L, N + 1), dtype=np.int8)

    # Per (location, action): next-size index row and immediate-payment row,
    # both constant over time.  Rows equal by construction are one array:
    # an index row per grid-step count, and one zero row for idling and for
    # a price of exactly +0.0 (a -0.0 price keeps its computed row, whose
    # signed zeros could differ in a sum).
    arange = np.arange(N + 1)
    index_rows = {}
    zero = np.zeros(N + 1)
    plans = []
    for li in range(L):
        admissible = admissible_actions(model, li + 1)
        rows = []
        for a in (a for a in _PREFERENCE if a in admissible):
            steps = transfer_steps(spec, model.rate[li, a])
            idx = index_rows.get(steps)
            if idx is None:
                idx = index_rows[steps] = np.maximum(arange - steps, 0)
            price = model.price[li, a]
            if a is Action.IDLE or (price == 0.0 and not np.signbit(price)):
                cost = zero
            elif a is Action.CELLULAR and flat_payment:
                cost = np.full(N + 1, model.rate[li, a] * price)
            else:
                cost = np.minimum(grid, model.rate[li, a]) * price
            rows.append((a, idx, cost))
        plans.append(rows)

    mobility = model.mobility
    w_all = np.empty((L, N + 1))  # each epoch's expectation, reused
    for t in range(T - 1, -1, -1):
        np.matmul(mobility, v[(t + 1) % m], out=w_all)
        for li in range(L):
            w = w_all[li]
            rows = plans[li]
            a0, idx0, cost0 = rows[0]
            best = cost0 + w[idx0]
            act = np.full(N + 1, int(a0), dtype=np.int8)
            for a, idx, cost in rows[1:]:
                psi = cost + w[idx]
                act[psi < best * (1.0 - TIE_REL_TOL)] = int(a)
                best = np.minimum(best, psi)
            act[0] = int(Action.IDLE)
            v[t % m, li] = best
            delta[t, li] = act

    return (
        Policy(delta, spec.grid_step),
        ValueTable(v, spec.grid_step) if values else None,
    )
