"""Exact finite-horizon planner.

Backward induction over the (time x remaining-size x location) lattice
produces the full decision table and the expected-cost table.  Work per
epoch is one expectation against the mobility chain plus one action-value
row per (location, action), so the total cost grows with
``horizon * locations * grid points * actions``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import (
    Action,
    GRID_EPS,
    NetworkModel,
    ProblemSpec,
    admissible_actions,
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
_TIE_RANK = {Action.WIFI: 0, Action.CELLULAR: 1, Action.IDLE: 2}

# An action displaces a preferred one only when strictly cheaper beyond this
# relative margin.  Exact ties in real arithmetic land within a few ulp of
# each other in floating point; without the margin they would resolve
# arbitrarily from cell to cell.  Stored values are exact minima regardless.
TIE_REL_TOL = 1e-9


def preference_order(actions) -> list:
    """``actions`` from the most to the least preferred under a tie."""
    return sorted((Action(a) for a in actions), key=_TIE_RANK.__getitem__)


@dataclass(frozen=True)
class ValueTable:
    """Expected cost-to-go ``value(t, k, l)`` for epochs 1..T+1.

    Row T+1 holds the terminal penalty.  Internally stored as
    ``values[t-1, l-1, k/step]``.
    """

    values: np.ndarray
    grid_step: float
    horizon: int

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def num_locations(self) -> int:
        return self.values.shape[1]

    @property
    def grid_points(self) -> int:
        return self.values.shape[2] - 1

    def _kindex(self, k: float) -> int:
        n = int(round(k / self.grid_step))
        if abs(k - n * self.grid_step) > GRID_EPS * max(1.0, abs(k)):
            raise DomainError(f"size {k!r} not on the {self.grid_step!r} grid")
        if not 0 <= n <= self.grid_points:
            raise DomainError(f"size {k!r} outside the table")
        return n

    def value(self, t: int, k: float, l: int) -> float:
        if not 1 <= t <= self.horizon + 1:
            raise DomainError(f"epoch {t} outside 1..{self.horizon + 1}")
        return float(self.values[t - 1, l - 1, self._kindex(k)])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "k", "l", "value"])
            for t in range(self.values.shape[0]):
                for l in range(self.num_locations):
                    for n in range(self.grid_points + 1):
                        w.writerow(
                            [t + 1, n * self.grid_step, l + 1, repr(float(self.values[t, l, n]))]
                        )


@dataclass(frozen=True)
class Policy:
    """Decision table ``action(t, k, l)`` for epochs 1..T.

    At zero remaining size the stored decision is always IDLE.
    """

    actions: np.ndarray
    grid_step: float
    horizon: int

    def __post_init__(self):
        self.actions.setflags(write=False)

    @property
    def num_locations(self) -> int:
        return self.actions.shape[1]

    @property
    def grid_points(self) -> int:
        return self.actions.shape[2] - 1

    def action(self, t: int, k: float, l: int) -> Action:
        if not 1 <= t <= self.horizon:
            raise DomainError(f"epoch {t} outside 1..{self.horizon}")
        n = int(round(k / self.grid_step))
        if abs(k - n * self.grid_step) > GRID_EPS * max(1.0, abs(k)) or not (
            0 <= n <= self.grid_points
        ):
            raise DomainError(f"size {k!r} not on the policy grid")
        return Action(int(self.actions[t - 1, l - 1, n]))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "k", "l", "action"])
            for t in range(self.horizon):
                for l in range(self.num_locations):
                    for n in range(self.grid_points + 1):
                        w.writerow(
                            [t + 1, n * self.grid_step, l + 1, int(self.actions[t, l, n])]
                        )


def solve(
    model: NetworkModel,
    spec: ProblemSpec,
    *,
    flat_payment: bool = False,
    values: bool = True,
    max_cells: int = 50_000_000,
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
    cells = (T + 1) * (N + 1) * L
    if cells > max_cells:
        raise ResourceLimitError(
            f"value lattice needs {cells} cells ({cells * 8} bytes), "
            f"budget is {max_cells} cells"
        )

    grid = spec.grid_values
    m = T + 1 if values else 2  # epoch t is stored at v[t % m]
    v = np.empty((m, L, N + 1), dtype=float)
    v[T % m] = penalty_on_grid(spec.penalty, grid)[None, :]
    delta = np.zeros((T, L, N + 1), dtype=np.int8)

    # Per (location, action): next-size index row and immediate-payment row,
    # both constant over time.
    plans = []
    for li in range(L):
        order = preference_order(admissible_actions(model, li + 1))
        rows = []
        for a in order:
            steps = transfer_steps(spec, model.rate[li, a])
            idx = np.maximum(np.arange(N + 1) - steps, 0)
            if a is Action.IDLE:
                cost = np.zeros(N + 1)
            elif a is Action.CELLULAR and flat_payment:
                cost = np.full(N + 1, model.rate[li, a] * model.price[li, a])
            else:
                cost = np.minimum(grid, model.rate[li, a]) * model.price[li, a]
            rows.append((a, idx, cost))
        plans.append(rows)

    mobility = model.mobility
    for t in range(T - 1, -1, -1):
        w_all = mobility @ v[(t + 1) % m]
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
        Policy(delta, spec.grid_step, T),
        ValueTable(v, spec.grid_step, T) if values else None,
    )
