"""Low-complexity threshold planner.

Under a simplified cost model (free Wi-Fi, location-independent cellular
price and rates, convex penalty, full-slot cellular billing) the optimal
decision switches at most once along the remaining-size axis and at most
once along the time axis.  This planner computes only those switch points
per (location, epoch), searching for each one only at or above the
frontier found one epoch later, instead of minimizing over the whole
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
    at every location.  The penalty must be convex on the size grid.
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

        if not is_convex_on_grid(penalty_on_grid(spec.penalty, spec.grid_values)):
            raise PreconditionError("penalty must be convex on the size grid")

        return cls(
            num_locations=L,
            wifi_locations=model.wifi_locations,
            mobility=model.mobility,
            mu_cellular=mu1,
            mu_wifi=mu2,
            cellular_cost=mu1 * p1,
            penalty=spec.penalty,
        )


def _spread(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
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


def _cellular_values(w: np.ndarray, d: int, lo: int, q: float) -> np.ndarray:
    """``q + w[:, max(n - d, 0)]`` for columns ``n = lo..N``, from basic slices."""
    width = w.shape[1]
    if lo >= d:
        return w[:, lo - d : width - d] + q
    out = np.empty((w.shape[0], width - lo))
    clear = min(d, width) - lo  # one cellular slot clears these sizes
    out[:, :clear] = w[:, :1] + q
    out[:, clear:] = w[:, : max(width - d, 0)] + q
    return out


def solve_monotone(mm: MonotoneModel, spec: ProblemSpec, *, values: bool = True):
    """Backward induction that only searches around the moving frontier.

    Returns ``(ThresholdPolicy, ValueTable)``.  The policy's ``to_policy()``
    table equals the exact planner's cell for cell when that planner is
    run with ``flat_payment=True`` on the equivalent network.  The penalty
    comes from ``spec``, as in the exact planner.  ``values=False`` keeps
    two epochs of costs and returns None for the table, as ``dp.solve``
    does.

    Each epoch shifts the idle continuation ``P @ v[t+1]`` by the cellular
    and Wi-Fi transfers, then searches each coverage class for its switch
    only at or above that class's lowest frontier one epoch later
    (Theorem 3: going back in time, frontiers only rise).  A class whose
    frontiers are all past the file size is not searched at all.  Once
    that holds for every class, ``values=False`` stops: the earlier epochs
    keep ``grid_points + 1`` and their costs are never computed.
    """
    L = mm.num_locations
    N = spec.grid_points
    T = spec.horizon
    v = cost_lattice(spec, L, values)
    m = len(v)  # epoch t is stored at v[t % m]
    if not is_convex_on_grid(v[T % m, 0]):
        raise PreconditionError("penalty must be convex on the size grid")

    d1 = transfer_steps(spec, mm.mu_cellular)
    d2 = transfer_steps(spec, mm.mu_wifi)
    covered = np.zeros(L, dtype=bool)
    covered[[l - 1 for l in mm.wifi_locations]] = True
    wifi_rows = np.flatnonzero(covered)
    # Mirror the exact planner's displacement rule per coverage class: on
    # Wi-Fi, cellular must beat the free transfer strictly (ties stay
    # free); away from it, cellular takes a cell unless idling is strictly
    # cheaper (ties transmit).
    classes = [(wifi_rows, True), (np.flatnonzero(~covered), False)]
    classes = [(rows, wifi) for rows, wifi in classes if rows.size]
    shift_wifi = wifi_rows.size > 0 and d2 > 0
    cols = np.arange(N + 1)
    q = mm.cellular_cost
    P = mm.mobility
    omt = 1.0 - TIE_REL_TOL

    ks_idx = np.full((L, T), N + 1, dtype=np.int64)
    ks_next = np.zeros(L, dtype=np.int64)
    starts = [0] * len(classes)  # lowest frontier of each class one epoch later
    # Switch test over sizes [start, N] of one class, plus an always-true
    # column N + 1, so that argmax lands on N + 1 when nothing switches.
    switch = np.empty((L, N + 2), dtype=bool)
    switch[:, N + 1] = True
    for t in range(T - 1, -1, -1):
        lo = min(starts)  # lowest frontier one epoch later, over all locations
        if lo > N and not values:
            # Every frontier one epoch later is past the file size, so no
            # class is searched at this epoch or an earlier one: their
            # columns keep N + 1 and their costs would go unread.
            break
        v_t = v[t % m]
        np.matmul(P, v[(t + 1) % m], out=v_t)  # v_t holds the idle continuation
        if lo <= N:
            v1 = _cellular_values(v_t, d1, lo, q)
        if shift_wifi:
            # Free-action value at covered locations is the Wi-Fi one.
            idle = v_t[wifi_rows]
            v_t[wifi_rows, :d2] = idle[:, :1]
            v_t[wifi_rows, d2:] = idle[:, : max(N + 1 - d2, 0)]
        if lo > N:
            # Every frontier is above the file size one epoch later, hence
            # now too: cellular is never chosen.
            continue
        ks_t = ks_idx[:, t]
        for c, (rows, wifi) in enumerate(classes):
            start = starts[c]
            if start > N:
                continue
            c1 = v1[rows, start - lo :]
            cj = v_t[rows, start:]
            hit = switch[: rows.size, start:]
            if wifi:
                np.less(c1, cj * omt, out=hit[:, :-1])
            else:
                np.greater_equal(cj, c1 * omt, out=hit[:, :-1])
            ks = hit.argmax(axis=1) + start
            below = ks_next[rows]
            if (ks < below).any():
                # Some row switches below its own later frontier: search
                # each row only from that frontier.
                hit[:, :-1] &= cols[start:] >= below[:, None]
                ks = hit.argmax(axis=1) + start
            ks_t[rows] = ks
            starts[c] = int(ks.min())
        tail = v_t[:, lo:]
        np.minimum(v1, tail, out=tail)
        ks_next = ks_t

    tp = ThresholdPolicy(
        k_star_idx=ks_idx,
        wifi_locations=mm.wifi_locations,
        grid_step=spec.grid_step,
        file_size=spec.file_size,
        horizon=T,
    )
    return tp, ValueTable(v, spec.grid_step, T) if values else None
