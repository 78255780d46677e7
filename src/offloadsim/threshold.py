"""Low-complexity threshold planner.

Under a simplified cost model (free Wi-Fi, location-independent cellular
price and rates, convex penalty, full-slot cellular billing) the optimal
decision switches at most once along the remaining-size axis and at most
once along the time axis.  This planner computes only those switch points
per (location, epoch), searching each epoch only from the lowest frontier
found one epoch later (Theorem 3), instead of minimizing over the whole
action set at every lattice point.  The frontiers plus the Wi-Fi set are
the whole rule; ``ThresholdPolicy.to_policy`` writes it out as the
decision table the exact planner returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import TIE_REL_TOL, Policy, ValueTable, cost_lattice, write_table
from .errors import PreconditionError
from .model import (
    Action,
    NetworkModel,
    PenaltyFn,
    ProblemSpec,
    check_location,
    is_convex_on_grid,
    penalty_on_grid,
    transfer_steps,
)

# Max relative spread tolerated when checking location-independence.
_SPREAD_TOL = 1e-9


@dataclass(frozen=True)
class MonotoneModel:
    """Network description restricted to the regime the threshold planner
    solves exactly.

    ``cellular_cost`` is the flat price of one cellular slot
    (per-slot rate times unit price); Wi-Fi is free.  Rates are the same
    at every location.  ``penalty`` records the penalty the input was
    derived with; ``solve_monotone`` does not read it, but reads the
    spec's penalty and checks that it is convex on the size grid.
    """

    num_locations: int
    wifi_locations: frozenset
    mobility: np.ndarray
    mu_cellular: float
    mu_wifi: float
    cellular_cost: float
    penalty: PenaltyFn

    def __post_init__(self):
        if self.mu_cellular < 0 or self.mu_wifi < 0:
            raise PreconditionError("rates must be >= 0")
        if self.cellular_cost < 0:
            raise PreconditionError("cellular slot cost must be >= 0")
        if self.mu_cellular == 0 and self.cellular_cost > 0:
            raise PreconditionError(
                "cellular slot cost must be 0 when the cellular rate is 0"
            )
        # Reuse the network validation for mobility and the wifi set.
        net = self.to_network_model()
        object.__setattr__(self, "mobility", net.mobility)
        object.__setattr__(self, "wifi_locations", net.wifi_locations)

    def to_network_model(self) -> NetworkModel:
        """Equivalent generic network (free Wi-Fi, uniform cellular price)."""
        L = self.num_locations
        price_cell = self.cellular_cost / self.mu_cellular if self.mu_cellular > 0 else 0.0
        price = np.zeros((L, 3))
        price[:, Action.CELLULAR] = price_cell
        rate = np.zeros((L, 3))
        rate[:, Action.CELLULAR] = self.mu_cellular
        for l in self.wifi_locations:
            rate[l - 1, Action.WIFI] = self.mu_wifi
        return NetworkModel(
            num_locations=L,
            wifi_locations=frozenset(self.wifi_locations),
            mobility=np.asarray(self.mobility, dtype=float),
            price=price,
            rate=rate,
        )

    @classmethod
    def from_network_model(cls, model: NetworkModel, spec: ProblemSpec) -> "MonotoneModel":
        """Derive the restricted description from a generic network.

        Every requirement is checked; a :class:`PreconditionError` names
        the first one violated.
        """
        L = model.num_locations
        wifi = sorted(model.wifi_locations)
        cell_rates = model.rate[:, Action.CELLULAR]
        cell_prices = model.price[:, Action.CELLULAR]
        wifi_rates = np.array([model.rate[l - 1, Action.WIFI] for l in wifi])
        wifi_prices = np.array([model.price[l - 1, Action.WIFI] for l in wifi])

        if wifi and wifi_prices.max(initial=0.0) > 0:
            raise PreconditionError(
                "Wi-Fi must be free at every covered location"
            )
        if _spread(cell_prices) > _SPREAD_TOL:
            raise PreconditionError(
                "cellular price must be location-independent"
            )
        if _spread(cell_rates) > _SPREAD_TOL:
            raise PreconditionError(
                "cellular rate must be location-independent"
            )
        if wifi and _spread(wifi_rates) > _SPREAD_TOL:
            raise PreconditionError(
                "Wi-Fi rate must be the same at every covered location"
            )
        mu1 = float(cell_rates[0])
        mu2 = float(wifi_rates[0]) if wifi else 0.0
        p1 = float(cell_prices[0])

        check_convex(penalty_on_grid(spec.penalty, spec.grid_values))

        return cls(
            num_locations=L,
            wifi_locations=model.wifi_locations,
            mobility=model.mobility,
            mu_cellular=mu1,
            mu_wifi=mu2,
            cellular_cost=mu1 * p1,
            penalty=spec.penalty,
        )


def check_convex(penalty_values: np.ndarray) -> None:
    """Raise the planner's convexity precondition unless ``penalty_values``,
    the penalty at every size of the grid, are convex there."""
    if not is_convex_on_grid(penalty_values):
        raise PreconditionError("penalty must be convex on the size grid")


def _spread(values: np.ndarray) -> float:
    lo, hi = float(values.min()), float(values.max())
    return (hi - lo) / max(1.0, abs(hi))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per (location, epoch) size frontier ``k_star`` plus the Wi-Fi set,
    which together state the monotone rule; ``to_policy`` writes it out as
    a decision table.

    ``k_star_idx[l-1, t-1]`` is the first grid index at which cellular is
    chosen; the value ``grid_points + 1`` (one step past the file size)
    means cellular is never chosen at that (location, epoch).  Below it the
    user takes Wi-Fi where covered and idles elsewhere.  Where Wi-Fi is
    faster (Lemma 2), every epoch holds ``grid_points + 1``.
    """

    k_star_idx: np.ndarray
    wifi_locations: frozenset
    grid_step: float
    file_size: float
    horizon: int

    def __post_init__(self):
        self.k_star_idx.setflags(write=False)
        wifi = frozenset(check_location(l, self.num_locations) for l in self.wifi_locations)
        object.__setattr__(self, "wifi_locations", wifi)

    @property
    def num_locations(self) -> int:
        return self.k_star_idx.shape[0]

    @property
    def grid_points(self) -> int:
        """Number of grid steps in the full file (grid has this + 1 values)."""
        return int(round(self.file_size / self.grid_step))

    def to_policy(self) -> Policy:
        """The monotone rule as the exact planner's decision table: idle at
        size 0, else cellular at or above the frontier, else Wi-Fi where
        covered and idle elsewhere."""
        shape = (self.horizon, self.num_locations, self.grid_points + 1)
        actions = np.full(shape, Action.IDLE, dtype=np.int8)
        for l in self.wifi_locations:
            actions[:, l - 1] = Action.WIFI
        cellular = np.arange(self.grid_points + 1) >= self.k_star_idx.T[:, :, None]
        np.copyto(actions, Action.CELLULAR, where=cellular)
        actions[:, :, 0] = Action.IDLE
        return Policy(actions, self.grid_step, self.horizon)

    def write_csv(self, path) -> None:
        def row(l, t):
            return l + 1, t + 1, repr(float(self.k_star_idx[l, t] * self.grid_step))

        write_table(path, ("l", "t", "k_star"), self.k_star_idx.shape, row)


def _cellular_values(out: np.ndarray, w: np.ndarray, d: int, lo: int, q: float) -> None:
    """Write ``q + w[:, max(n - d, 0)]`` to ``out`` for every column
    ``n >= min(lo, d)``.

    The bulk is one add over the flat buffers, so that it runs over
    contiguous memory.  It leaves the end of the row above in each row's
    first ``d`` columns; those are written over only when some of them
    are at or above ``lo``.
    """
    width = w.shape[1]
    if d < width:
        np.add(w.reshape(-1)[: w.size - d], q, out=out.reshape(-1)[d:])
    if lo < d:
        np.add(w[:, :1], q, out=out[:, : min(d, width)])


def solve_monotone(mm: MonotoneModel, spec: ProblemSpec, *, values: bool = True):
    """Backward induction that only searches around the moving frontier.

    Returns ``(ThresholdPolicy, ValueTable)``.  The policy's ``to_policy()``
    table equals the exact planner's cell for cell when that planner is
    run with ``flat_payment=True`` on the equivalent network.  The penalty
    comes from ``spec``, as in the exact planner.  ``values=False`` keeps
    two epochs of costs and returns None for the table, as ``dp.solve``
    does.

    Each epoch shifts the idle continuation ``P @ v[t+1]`` by the cellular
    and Wi-Fi transfers, then takes each location's switch as the first
    size where cellular wins, searched from the lowest of the frontiers one
    epoch later: the cellular option enters the costs only from there up.
    Once every frontier is past the file size, cellular is never chosen
    again: no location is searched, and ``values=False`` stops, so that
    the earlier epochs keep ``grid_points + 1`` and their costs are never
    computed.  Theorem 3 (going back in time, frontiers only rise) is what
    that mask and that stop assume; nothing forces it on the frontiers
    returned, so ``verify theorem3`` checks the planner's own output.
    """
    L = mm.num_locations
    N = spec.grid_points
    T = spec.horizon
    v = cost_lattice(spec, L, values)
    m = len(v)  # epoch t is stored at v[t % m]
    check_convex(v[T % m, 0])

    d1 = transfer_steps(spec, mm.mu_cellular)
    d2 = transfer_steps(spec, mm.mu_wifi)
    wifi_rows = np.array(sorted(l - 1 for l in mm.wifi_locations), dtype=np.int64)
    nw = wifi_rows.size
    # Flat index of the idle cost that a Wi-Fi slot reaches from each
    # covered cell: column max(n - d2, 0) of the same row.
    wifi_src = wifi_rows[:, None] * (N + 1) + np.maximum(np.arange(N + 1) - d2, 0)
    q = mm.cellular_cost
    P = mm.mobility
    omt = 1.0 - TIE_REL_TOL

    ks_idx = np.full((L, T), N + 1, dtype=np.int64)
    lo = 0  # the lowest frontier one epoch later
    wifi_searched = nw > 0  # some covered location's frontier is at most N
    # Whole-row work buffers.  Each switch test carries an always-true
    # column N + 1, so that argmax lands on N + 1 when nothing switches.
    cell = np.empty((L, N + 1))  # cost of a cellular slot now
    scaled = np.empty((L, N + 1))
    switch = np.empty((L, N + 2), dtype=bool)
    wifi_switch = np.empty((nw, N + 2), dtype=bool)
    switch[:, N + 1] = wifi_switch[:, N + 1] = True
    for t in range(T - 1, -1, -1):
        if lo > N and not values:
            # Every frontier one epoch later is past the file size, so no
            # location is searched at this epoch or an earlier one: their
            # columns keep N + 1 and their costs would go unread.
            break
        v_t = v[t % m]
        np.matmul(P, v[(t + 1) % m], out=v_t)  # v_t holds the idle continuation
        if lo <= N:
            _cellular_values(cell, v_t, d1, lo, q)
        # Free-action value at covered locations is the Wi-Fi one.
        v_t[wifi_rows] = v_t.reshape(-1)[wifi_src]
        if lo > N:
            # Every frontier is above the file size one epoch later, hence
            # now too: cellular is never chosen.
            continue
        # Cellular enters the costs, and the search, from the lowest
        # frontier up.
        cell[:, :lo] = np.inf
        # Mirror the exact planner's displacement rule: away from Wi-Fi,
        # cellular takes a cell unless idling is strictly cheaper (ties
        # transmit); on Wi-Fi, cellular must beat the free transfer
        # strictly (ties stay free).
        np.multiply(cell, omt, out=scaled)
        np.greater_equal(v_t, scaled, out=switch[:, : N + 1])
        ks = switch.argmax(axis=1)
        if wifi_searched:
            np.multiply(v_t[wifi_rows], omt, out=scaled[:nw])
            np.less(cell[wifi_rows], scaled[:nw], out=wifi_switch[:, : N + 1])
            ks[wifi_rows] = wifi_switch.argmax(axis=1)
            wifi_searched = ks[wifi_rows].min() <= N
        elif nw:
            ks[wifi_rows] = N + 1
        ks_idx[:, t] = ks
        np.minimum(cell, v_t, out=v_t)
        lo = min(ks.tolist())

    tp = ThresholdPolicy(
        k_star_idx=ks_idx,
        wifi_locations=mm.wifi_locations,
        grid_step=spec.grid_step,
        file_size=spec.file_size,
        horizon=T,
    )
    return tp, ValueTable(v, spec.grid_step, T) if values else None
