"""Domain model for deadline-constrained network selection.

A mobile user moves between locations on a Markov chain, always has a
cellular connection, sometimes has Wi-Fi, and must push a file of known
size through before a deadline.  This module holds the static problem
description (network, prices, per-slot throughputs, size grid, deadline
penalty) and the primitive functions every solver and the simulator share:
per-slot payment, terminal penalty, size update, and the one-step
transition distribution.

Sizes and rates are expressed in one consistent unit (the bundled
scenario builder uses megabits); prices are money per size unit.  All
types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Tolerance for checking that probability masses sum to one.
PROB_TOL = 1e-9
# Relative slack when snapping a size to the grid.
GRID_EPS = 1e-9


class Action(enum.IntEnum):
    IDLE = 0
    CELLULAR = 1
    WIFI = 2


@dataclass(frozen=True)
class NetworkModel:
    """Static network environment seen by one user.

    ``mobility[i, j]`` is the probability of moving from location ``i+1``
    to ``j+1`` in one slot.  ``price[i, a]`` is money per size unit and
    ``rate[i, a]`` is the amount transferable in one slot (throughput
    already multiplied by the slot length) for action ``a`` at location
    ``i+1``.  Locations are 1-based in the public API.
    """

    num_locations: int
    wifi_locations: frozenset
    mobility: np.ndarray
    price: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        L = self.num_locations
        if L < 1:
            raise DomainError("need at least one location")
        wifi = frozenset(int(l) for l in self.wifi_locations)
        if any(l < 1 or l > L for l in wifi):
            raise DomainError(f"wifi location out of range 1..{L}: {sorted(wifi)}")
        object.__setattr__(self, "wifi_locations", wifi)

        mob = np.asarray(self.mobility, dtype=float)
        if mob.shape != (L, L):
            raise DomainError(f"mobility must be {L}x{L}, got {mob.shape}")
        if not np.isfinite(mob).all():
            raise DomainError("mobility entries must be finite")
        if (mob < 0).any():
            raise DomainError("mobility entries must be non-negative")
        rowsum = mob.sum(axis=1)
        bad = np.where(np.abs(rowsum - 1.0) > PROB_TOL)[0]
        if bad.size:
            raise DomainError(
                f"mobility row {bad[0] + 1} sums to {rowsum[bad[0]]!r}, expected 1"
            )

        price = np.asarray(self.price, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        for name, arr in (("price", price), ("rate", rate)):
            if arr.shape != (L, 3):
                raise DomainError(f"{name} must have shape ({L}, 3), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} entries must be finite")
            if (arr < 0).any():
                raise DomainError(f"{name} entries must be non-negative")
            if arr[:, Action.IDLE].any():
                raise DomainError(f"{name} of the idle action must be zero")

        for arr in (mob, price, rate):
            arr.setflags(write=False)
        object.__setattr__(self, "mobility", mob)
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "rate", rate)

    def check_location(self, l: int) -> int:
        if not 1 <= l <= self.num_locations:
            raise DomainError(f"location {l} out of range 1..{self.num_locations}")
        return int(l)

    def has_wifi(self, l: int) -> bool:
        return self.check_location(l) in self.wifi_locations

    def rate_of(self, l: int, a: Action) -> float:
        return float(self.rate[self.check_location(l) - 1, a])

    def price_of(self, l: int, a: Action) -> float:
        return float(self.price[self.check_location(l) - 1, a])


class PenaltyFn:
    """Deadline penalty charged on the size still untransferred when the
    horizon ends.  Implementations are non-decreasing with ``h(0) = 0``."""

    def __call__(self, k: float) -> float:
        raise NotImplementedError

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Penalty at every size in ``grid``.

        This scalar loop is the reference; the bundled families override it
        with one array expression that gives the same values bit for bit.
        """
        return np.array([self(float(k)) for k in grid], dtype=float)


@dataclass(frozen=True)
class QuadraticPenalty(PenaltyFn):
    coefficient: float

    def __post_init__(self):
        if self.coefficient < 0:
            raise DomainError("quadratic penalty coefficient must be >= 0")

    def __call__(self, k: float) -> float:
        return self.coefficient * k * k

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        return self.coefficient * grid * grid


@dataclass(frozen=True)
class StepPenalty(PenaltyFn):
    amount: float

    def __post_init__(self):
        if self.amount < 0:
            raise DomainError("step penalty amount must be >= 0")

    def __call__(self, k: float) -> float:
        return self.amount if k > 0 else 0.0

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        return np.where(grid > 0, float(self.amount), 0.0)


@dataclass(frozen=True)
class TabulatedPenalty(PenaltyFn):
    """Penalty given by explicit values on the size grid ``0, step, 2*step, ...``."""

    values: tuple
    grid_step: float

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("tabulated penalty needs at least the value at 0")
        if vals[0] != 0.0:
            raise DomainError("penalty at zero remaining size must be 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("tabulated penalty must be non-decreasing")
        if self.grid_step <= 0:
            raise DomainError("tabulated penalty grid step must be > 0")
        object.__setattr__(self, "values", vals)

    def __call__(self, k: float) -> float:
        n = int(round(k / self.grid_step))
        if abs(k - n * self.grid_step) > GRID_EPS * max(1.0, abs(k)) or not (
            0 <= n < len(self.values)
        ):
            raise DomainError(f"size {k!r} not on the tabulated grid")
        return self.values[n]

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        n = np.rint(grid / self.grid_step).astype(np.int64)
        off = np.abs(grid - n * self.grid_step) > GRID_EPS * np.maximum(1.0, np.abs(grid))
        bad = off | (n < 0) | (n >= len(self.values))
        if bad.any():
            k = float(grid[np.argmax(bad)])
            raise DomainError(f"size {k!r} not on the tabulated grid")
        return np.asarray(self.values, dtype=float)[n]


def penalty_on_grid(pen: PenaltyFn, grid: np.ndarray) -> np.ndarray:
    """Terminal penalty at every size of the grid, as one float array."""
    return pen.on_grid(np.asarray(grid, dtype=float))


def is_convex_on_grid(vals: np.ndarray, tol: float = 1e-9) -> bool:
    """Second differences of penalty values on the grid are all >= -tol
    (relative to the largest magnitude, floored at 1)."""
    if vals.size < 3:
        return True
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    scale = max(1.0, float(np.abs(vals).max()))
    return bool((second >= -tol * scale).all())


@dataclass(frozen=True)
class ProblemSpec:
    """One transfer task: total size, horizon in slots, size grid, penalty.

    The total size is rounded up to the next grid multiple at construction
    (a warning is emitted when rounding changes it).
    """

    file_size: float
    horizon: int
    grid_step: float
    penalty: PenaltyFn
    initial_location: int = 1

    def __post_init__(self):
        if not math.isfinite(self.grid_step) or self.grid_step <= 0:
            raise DomainError(f"grid step must be finite and > 0, got {self.grid_step!r}")
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1 slot")
        if not math.isfinite(self.file_size) or self.file_size < 0:
            raise DomainError(f"file size must be finite and >= 0, got {self.file_size!r}")
        n = self.file_size / self.grid_step
        n_up = round(n)
        # A size already on the grid (n_up steps, as rounding stores it) is
        # kept; the absolute slack below is under the float spacing of n on
        # grids of more than a few million points.
        if n_up * self.grid_step != self.file_size:
            n_up = int(math.ceil(n - GRID_EPS))
        rounded = n_up * self.grid_step
        if abs(rounded - self.file_size) > GRID_EPS * max(1.0, self.file_size):
            warnings.warn(
                f"file size {self.file_size!r} rounded up to {rounded!r} "
                f"(next multiple of {self.grid_step!r})",
                stacklevel=2,
            )
        object.__setattr__(self, "file_size", float(rounded))

    @property
    def grid_points(self) -> int:
        """Number of grid steps in the full file (grid has this + 1 values)."""
        return int(round(self.file_size / self.grid_step))

    @property
    def grid_values(self) -> np.ndarray:
        return np.arange(self.grid_points + 1) * self.grid_step

    def index_of(self, k: float) -> int:
        n = int(round(k / self.grid_step))
        if abs(k - n * self.grid_step) > GRID_EPS * max(1.0, abs(k)):
            raise DomainError(f"size {k!r} is not on the {self.grid_step!r} grid")
        if not 0 <= n <= self.grid_points:
            raise DomainError(f"size {k!r} outside [0, {self.file_size!r}]")
        return n


@dataclass(frozen=True)
class State:
    """Remaining size ``k`` (on the grid) and current location ``l``."""

    k: float
    l: int


def admissible_actions(model: NetworkModel, l: int) -> tuple:
    """Actions available at a location: Wi-Fi only where it has coverage."""
    if model.has_wifi(l):
        return (Action.IDLE, Action.CELLULAR, Action.WIFI)
    return (Action.IDLE, Action.CELLULAR)


def payment(model: NetworkModel, spec: ProblemSpec, s: State, a: Action) -> float:
    """Usage payment for one slot: transferred amount times unit price.

    The transferred amount is capped by the remaining size, so finishing
    mid-slot is only billed for what was left.
    """
    a = Action(a)
    if a not in admissible_actions(model, s.l):
        raise DomainError(f"action {a.name} not admissible at location {s.l}")
    if a is Action.IDLE:
        return 0.0
    return min(s.k, model.rate_of(s.l, a)) * model.price_of(s.l, a)


def slot_payment(model: NetworkModel, l: int, a: Action) -> float:
    """Payment for a full slot's worth of transfer, ignoring the remainder cap."""
    a = Action(a)
    if a is Action.IDLE:
        return 0.0
    return model.rate_of(l, a) * model.price_of(l, a)


def penalty(spec: ProblemSpec, k: float) -> float:
    """Terminal cost of ending the horizon with ``k`` still untransferred."""
    spec.index_of(k)
    return float(spec.penalty(k))


def transfer_steps(spec: ProblemSpec, transfer: float) -> int:
    """Whole grid steps one slot's transfer covers (progress is never overstated)."""
    return int(math.floor(transfer / spec.grid_step + GRID_EPS)) if transfer > 0 else 0


def next_file_size(spec: ProblemSpec, k: float, transfer: float) -> float:
    """Remaining size after one slot: grid-quantized transfer, clamped at zero."""
    n = int(round(k / spec.grid_step))
    return max(0, n - transfer_steps(spec, transfer)) * spec.grid_step


def transition_dist(model: NetworkModel, spec: ProblemSpec, s: State, a: Action):
    """One-step successor distribution: deterministic in size, Markov in location.

    Returns ``[(State, probability), ...]`` over successors with positive
    probability; the masses sum to one.
    """
    a = Action(a)
    if a not in admissible_actions(model, s.l):
        raise DomainError(f"action {a.name} not admissible at location {s.l}")
    k_next = next_file_size(spec, s.k, model.rate_of(s.l, a))
    row = model.mobility[s.l - 1]
    return [
        (State(k_next, l_next + 1), float(p))
        for l_next, p in enumerate(row)
        if p > 0.0
    ]
