"""Domain model for deadline-constrained network selection.

A mobile user moves between locations on a Markov chain, always has a
cellular connection, sometimes has Wi-Fi, and must push a file of known
size through before a deadline.  This module holds the static problem
description (network, prices, per-slot throughputs, size grid, deadline
penalty) and the rules read from it.  Both planners and the episode walk
quantize a slot's transfer with ``transfer_steps``; the planners read the
terminal penalty on the whole grid with ``penalty_on_grid``.  The scalar
primitives (per-slot payment, size update and one-step transition
distribution) serve the brute-force oracle.

Sizes and rates are expressed in one consistent unit (the bundled
scenario builder uses megabits); prices are money per size unit.  All
types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridRoundingWarning

# Tolerance for checking that probability masses sum to one.
PROB_TOL = 1e-9
# Relative slack when snapping a size to the grid.
GRID_EPS = 1e-9
# Most cells either planner's (epoch x location x size) cost lattice may
# span, kept or not: 400 MB of float64.  It also bounds the L x L mobility
# matrix a scenario may configure.
MAX_LATTICE_CELLS = 50_000_000


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
        L = check_number(self.num_locations, "num_locations", 1, integer=True)
        object.__setattr__(self, "num_locations", L)
        object.__setattr__(self, "wifi_locations", check_wifi_locations(self.wifi_locations, L))
        arrays = {"mobility": check_mobility(self.mobility, L)}
        for name in ("price", "rate"):
            arrays[name] = check_array(getattr(self, name), name, (L, 3))
            if arrays[name][:, Action.IDLE].any():
                raise DomainError(f"{name} of the idle action must be zero")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def check_location(self, l: int) -> int:
        return check_location(l, self.num_locations)

    def has_wifi(self, l: int) -> bool:
        return self.check_location(l) in self.wifi_locations

    def rate_of(self, l: int, a: Action) -> float:
        return float(self.rate[self.check_location(l) - 1, a])

    def price_of(self, l: int, a: Action) -> float:
        return float(self.price[self.check_location(l) - 1, a])


def check_number(value, name: str, low, high=None, *, above=False, integer=False,
                 error=DomainError):
    """``value`` once it is a finite real number ``>= low`` (``> low`` with
    ``above``, in ``[low, high]`` if ``high`` is given), else ``error`` naming
    ``name``: the one rule for every count, size, rate and price.  With
    ``integer`` it is returned as an ``int`` (``operator.index``), else as is."""
    try:  # a non-number raises TypeError, and an int too large for a float OverflowError
        if integer:
            value = operator.index(value)
        finite = integer or math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        if integer:
            raise error(f"{name} must be an integer, got {value!r}")
        raise error(f"{name} must be a finite number, got {value!r}")
    if high is not None and not low <= value <= high:
        raise error(f"{name} must be in [{low}, {high}], got {value!r}")
    if above and not value > low:
        raise error(f"{name} must be > {low}")
    if not value >= low:
        raise error(f"{name} must be >= {low}")
    return value


def in_range(value, low, high, name: str) -> bool:
    """Whether ``low <= value <= high``; a ``value`` that is no number gets the
    number rule's :class:`DomainError` naming ``name``."""
    try:
        return low <= value <= high
    except TypeError:
        check_number(value, name, low)
        raise


def check_location(l: int, num_locations: int, name: str = "location") -> int:
    """``l`` as an int if it is one of the locations ``1..num_locations``,
    else :class:`DomainError` naming ``name``."""
    if not in_range(l, 1, num_locations, name):
        raise DomainError(f"{name} {l} out of range 1..{num_locations}")
    if l != int(l):
        raise DomainError(f"{name} {l!r} is not a whole number")
    return int(l)


def check_wifi_locations(locations, num_locations: int) -> frozenset:
    """A Wi-Fi set as a frozenset of ints once it is a collection, not a string, of
    locations ``check_location`` accepts, else :class:`DomainError` naming it."""
    try:  # a non-collection raises TypeError, and an array entry ValueError
        if not isinstance(locations, str):
            return frozenset(
                check_location(l, num_locations, "wifi_locations: location") for l in locations
            )
    except (TypeError, ValueError):
        pass
    raise DomainError(f"wifi_locations must be a collection of locations, got {locations!r}")


def check_array(value, name: str, shape=None) -> np.ndarray:
    """``value`` as a float array once ``np.asarray`` converts it, it has
    ``shape`` (None: any shape; a None length: any length) and its entries
    are finite and non-negative, else :class:`DomainError` naming ``name``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be an array of real numbers, got {value!r}") from None
    if shape is not None and arr.shape != shape and (
        arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))
    ):
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    if arr.size:
        # two reductions, so that an L x L mobility matrix is checked without
        # allocating its size; a NaN anywhere makes the minimum NaN
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"{name} entries must be finite")
        if lo < 0:
            raise DomainError(f"{name} entries must be non-negative")
    return arr


def check_mobility(mobility, num_locations: int = None) -> np.ndarray:
    """``mobility`` as a float array once it is a ``num_locations`` square matrix
    (None: any square of at least 1x1) whose entries pass ``check_array`` and whose
    rows sum to 1 within ``PROB_TOL``, else :class:`DomainError`; a matrix from
    ``share_mobility``, checked when it was shared, has only its shape checked."""
    mob = mobility
    if _shared_walk(mob) is None:
        mob = check_array(mob, "mobility")
        if mob.ndim != 2 or mob.shape[0] != mob.shape[1] or not mob.size:
            raise DomainError(f"mobility must be a square matrix of at least 1x1, got {mob.shape}")
        rowsum = mob.sum(axis=1)
        bad = np.flatnonzero(np.abs(rowsum - 1.0) > PROB_TOL)
        if bad.size:
            raise DomainError(f"mobility row {bad[0] + 1} sums to {rowsum[bad[0]]!r}, expected 1")
    if num_locations is not None and mob.shape != (num_locations, num_locations):
        raise DomainError(f"mobility must be {num_locations}x{num_locations}, got {mob.shape}")
    return mob


def _walk_rows(mob: np.ndarray) -> list:
    L = mob.shape[0]
    rows = []
    for row in mob:
        cols = np.flatnonzero(row)
        rows.append((np.cumsum(row)[cols].tolist(), (cols + 1).tolist() + [L]))
    return rows


# Mobility matrices checked once by ``share_mobility``, by identity: the
# array's weak reference and its walk rows.  An entry leaves when its array
# is freed, so an id is never matched to a later array.
_SHARED = {}


def _shared_walk(mob: np.ndarray):
    """The walk rows of a matrix that ``share_mobility`` checked, else None."""
    entry = _SHARED.get(id(mob))
    return entry[1] if entry is not None and entry[0]() is mob else None


def share_mobility(mobility) -> np.ndarray:
    """``check_mobility`` once for all the models built on ``mobility``.

    Returns it as a read-only float array, kept with its ``walk_rows`` for
    as long as it lives: a model built on that very array has only its
    shape checked, and ``walk_rows`` returns the rows built here.  The
    caller hands the array over: a float array that owns its data is not
    copied, and must not be written to afterwards."""
    mob = check_mobility(mobility)
    if mob.base is not None:  # a view: its base could still be written
        mob = mob.copy()
    mob.setflags(write=False)
    key = id(mob)
    _SHARED[key] = (weakref.ref(mob, lambda _, key=key: _SHARED.pop(key, None)), _walk_rows(mob))
    return mob


def walk_rows(mobility: np.ndarray) -> list:
    """Per location (index ``l - 1``), ``(sums, locations)`` for sampling one
    move of the chain ``mobility``: ``sums`` is the row's ``np.cumsum`` read
    at its nonzero columns, and ``locations`` their 1-based locations
    followed by the last location.  A uniform ``u`` moves to
    ``locations[bisect_right(sums, u)]``, the location that bisecting the
    whole cumulative row gives: its zero columns only repeat a sum, and a
    ``u`` at or above the row's total maps to the last location.

    The rows of a matrix from ``share_mobility`` were built once, when it
    was shared; any other matrix gets its rows built for this call.
    """
    mob = np.asarray(mobility, dtype=float)
    rows = _shared_walk(mob)
    return _walk_rows(mob) if rows is None else rows


def grid_index(k: float, step: float, points: int) -> int:
    """Index ``n`` of size ``k`` on the grid ``0, step, ..., points * step``.

    ``k`` may differ from ``n * step`` by ``GRID_EPS`` relative slack; a
    size off the grid or outside it raises :class:`DomainError`.
    """
    in_range(k, -math.inf, math.inf, "size")  # refuses a size that is no number
    x = k / step
    if not math.isfinite(x):
        raise DomainError(f"size {k!r} outside [0, {points * step!r}]")
    n = int(round(x))
    if abs(k - n * step) > GRID_EPS * max(1.0, abs(k)):
        raise DomainError(f"size {k!r} is not on the {step!r} grid")
    if not 0 <= n <= points:
        raise DomainError(f"size {k!r} outside [0, {points * step!r}]")
    return n


class PenaltyFn:
    """Deadline penalty charged on the size still untransferred when the
    horizon ends.  Implementations are non-decreasing with ``h(0) = 0``."""

    def __call__(self, k: float) -> float:
        raise NotImplementedError

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Penalty at every size in ``grid``.

        This scalar loop is the reference, and a tabulated penalty reads
        its sizes through it.  The quadratic and step penalties override it
        with one array expression that gives the same values bit for bit.
        """
        return np.array([self(float(k)) for k in grid], dtype=float)


@dataclass(frozen=True)
class QuadraticPenalty(PenaltyFn):
    coefficient: float

    def __post_init__(self):
        check_number(self.coefficient, "quadratic penalty coefficient", 0)

    def __call__(self, k: float) -> float:
        return self.coefficient * k * k

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        return self.coefficient * grid * grid


@dataclass(frozen=True)
class StepPenalty(PenaltyFn):
    amount: float

    def __post_init__(self):
        check_number(self.amount, "step penalty amount", 0)

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
        vals = check_array(self.values, "tabulated penalty", (None,)).tolist()
        if not vals:
            raise DomainError("tabulated penalty needs at least the value at 0")
        if vals[0] != 0.0:
            raise DomainError("penalty at zero remaining size must be 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("tabulated penalty must be non-decreasing")
        check_number(self.grid_step, "tabulated penalty grid step", 0, above=True)
        object.__setattr__(self, "values", tuple(vals))

    def __call__(self, k: float) -> float:
        return self.values[grid_index(k, self.grid_step, len(self.values) - 1)]


def penalty_on_grid(pen: PenaltyFn, grid: np.ndarray) -> np.ndarray:
    """Terminal penalty at every size of the grid, as one float array.

    A penalty that is not finite there raises :class:`DomainError`, naming
    the first such size: the planners' expectation ``P @ v`` would turn an
    infinite penalty and a zero mobility weight into NaN.  A large finite
    penalty still expresses a hard deadline."""
    grid = np.asarray(grid, dtype=float)
    vals = pen.on_grid(grid)
    finite = np.isfinite(vals)
    if not finite.all():
        n = int(finite.argmin())
        raise DomainError(f"penalty {float(vals[n])!r} at size {float(grid[n])!r} is not finite")
    return vals


def is_convex_on_grid(vals: np.ndarray) -> bool:
    """Second differences of penalty values on the grid are all >= -1e-9
    relative to the largest magnitude, floored at 1."""
    if vals.size < 3:
        return True
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    scale = max(1.0, float(np.abs(vals).max()))
    return bool((second >= -1e-9 * scale).all())


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
        check_number(self.grid_step, "grid step", 0, above=True)
        check_number(self.file_size, "file size", 0)
        for name in ("horizon", "initial_location"):  # stored as ints
            object.__setattr__(self, name, check_number(getattr(self, name), name, 1, integer=True))
        if not isinstance(self.penalty, PenaltyFn):
            raise DomainError(f"penalty must be a PenaltyFn, got {self.penalty!r}")
        n = self.file_size / self.grid_step
        if not math.isfinite(n):
            raise DomainError(f"file size {self.file_size!r} is not a finite number of grid steps")
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
                GridRoundingWarning,
                stacklevel=3,  # past the generated __init__, to the code building the spec
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
        return grid_index(k, self.grid_step, self.grid_points)


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
    k = check_number(s.k, "size", -math.inf)  # any finite size: a payment reads no grid
    a = Action(a)
    if a not in admissible_actions(model, s.l):
        raise DomainError(f"action {a.name} not admissible at location {s.l}")
    if a is Action.IDLE:
        return 0.0
    return min(k, model.rate_of(s.l, a)) * model.price_of(s.l, a)


def slot_payment(model: NetworkModel, l: int, a: Action) -> float:
    """Payment for a full slot's worth of transfer, ignoring the remainder cap."""
    a = Action(a)
    if a is Action.IDLE:
        return 0.0
    return model.rate_of(l, a) * model.price_of(l, a)


def transfer_steps(spec: ProblemSpec, transfer):
    """Whole grid steps one slot's transfer covers (progress is never
    overstated; NaN and negative transfers cover none): an int for one
    transfer, an int64 array of the same shape for an array of them."""
    # fmax sends NaN and negatives to 0, and on what is left, all
    # non-negative, truncation is floor
    x = np.fmax(transfer, 0.0) / spec.grid_step + GRID_EPS
    if not x.max(initial=0.0) < 2.0**63:
        raise DomainError("a slot's transfer spans too many grid steps for an int64 count")
    return x.astype(np.int64) if isinstance(transfer, np.ndarray) else int(x)


def next_file_size(spec: ProblemSpec, k: float, transfer: float) -> float:
    """Remaining size after one slot: grid-quantized transfer, clamped at zero."""
    n = spec.index_of(check_number(k, "size", -math.inf))  # grid_index checks range and grid
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
