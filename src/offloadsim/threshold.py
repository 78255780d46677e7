"""Low-complexity threshold planner.

Under a simplified cost model (free Wi-Fi, location-independent cellular
price and rates, convex penalty, full-slot cellular billing) the optimal
decision switches at most once along the remaining-size axis and at most
once along the time axis.  This planner computes only those switch points
per (location, epoch), searching for each one only at or above the
frontier found one epoch later, instead of minimizing over the whole
action set at every lattice point.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .dp import TIE_REL_TOL, ValueTable
from .errors import DomainError, PreconditionError, ResourceLimitError
from .model import (
    Action,
    NetworkModel,
    PenaltyFn,
    ProblemSpec,
    State,
    is_convex_on_grid,
    penalty_on_grid,
    transfer_steps,
)

# Max relative spread tolerated when checking location-independence.
_SPREAD_TOL = 1e-9


class LocationMode(enum.Enum):
    NO_WIFI = "no_wifi"
    WIFI_SLOWER = "wifi_slower"
    WIFI_FASTER = "wifi_faster"


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

    def mode_of(self, l: int) -> LocationMode:
        if l not in self.wifi_locations:
            return LocationMode.NO_WIFI
        if self.mu_wifi <= self.mu_cellular:
            return LocationMode.WIFI_SLOWER
        return LocationMode.WIFI_FASTER


def _spread(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    lo, hi = float(values.min()), float(values.max())
    return (hi - lo) / max(1.0, abs(hi))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per (location, epoch) size frontier ``k_star`` plus the per-location
    decision mode.

    ``k_star_idx[l-1, t-1]`` is the first grid index at which cellular is
    chosen; the sentinel value ``grid_points + 1`` (one step past the file
    size) means cellular is never chosen at that (location, epoch).
    """

    k_star_idx: np.ndarray
    modes: tuple
    grid_step: float
    file_size: float
    horizon: int

    def __post_init__(self):
        self.k_star_idx.setflags(write=False)

    @property
    def num_locations(self) -> int:
        return self.k_star_idx.shape[0]

    @property
    def sentinel(self) -> float:
        return self.file_size + self.grid_step

    def threshold(self, l: int, t: int) -> float:
        if not 1 <= l <= self.num_locations:
            raise DomainError(f"location {l} out of range")
        if not 1 <= t <= self.horizon:
            raise DomainError(f"epoch {t} outside 1..{self.horizon}")
        return float(self.k_star_idx[l - 1, t - 1] * self.grid_step)

    def mode_of(self, l: int) -> LocationMode:
        if not 1 <= l <= self.num_locations:
            raise DomainError(f"location {l} out of range")
        return self.modes[l - 1]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["l", "t", "k_star"])
            for l in range(self.num_locations):
                for t in range(self.horizon):
                    w.writerow(
                        [l + 1, t + 1, repr(float(self.k_star_idx[l, t] * self.grid_step))]
                    )


def decide(tp: ThresholdPolicy, s: State, t: int) -> Action:
    """Decision rule induced by the frontiers.

    Zero remaining size always maps to IDLE, mirroring the exact planner's
    idle-at-zero rule (the transfer loop never reaches this state anyway).
    """
    if not 1 <= t <= tp.horizon:
        raise DomainError(f"epoch {t} outside 1..{tp.horizon}")
    n = int(round(s.k / tp.grid_step))
    if n <= 0:
        return Action.IDLE
    mode = tp.mode_of(s.l)
    if mode is LocationMode.WIFI_FASTER:
        return Action.WIFI
    if n >= tp.k_star_idx[s.l - 1, t - 1]:
        return Action.CELLULAR
    return Action.IDLE if mode is LocationMode.NO_WIFI else Action.WIFI


def t_star_view(tp: ThresholdPolicy, k: float, l: int) -> int:
    """First epoch at which ``k`` is at or above the frontier.

    Returns ``horizon + 1`` when no epoch qualifies (including ``k = 0``).
    """
    n = int(round(k / tp.grid_step))
    row = tp.k_star_idx[l - 1]
    hits = np.where(row <= n)[0]
    return int(hits[0]) + 1 if hits.size else tp.horizon + 1


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


def solve_monotone(
    mm: MonotoneModel, spec: ProblemSpec, *, values: bool = True, max_cells: int = 50_000_000
):
    """Backward induction that only searches around the moving frontier.

    Returns ``(ThresholdPolicy, ValueTable)``.  The induced decision rule
    matches the exact planner's table cell for cell when that planner is
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
    keep the sentinel and their costs are never computed.
    """
    L = mm.num_locations
    N = spec.grid_points
    T = spec.horizon
    cells = (T + 1) * (N + 1) * L
    if cells > max_cells:
        raise ResourceLimitError(
            f"value lattice needs {cells} cells ({cells * 8} bytes), "
            f"budget is {max_cells} cells"
        )
    terminal = penalty_on_grid(spec.penalty, spec.grid_values)
    if not is_convex_on_grid(terminal):
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

    m = T + 1 if values else 2  # epoch t is stored at v[t % m]
    v = np.empty((m, L, N + 1))
    v[T % m] = terminal
    ks_idx = np.full((L, T), N + 1, dtype=np.int64)
    ks_next = np.zeros(L, dtype=np.int64)
    starts = [0] * len(classes)  # lowest frontier of each class one epoch later
    # Switch test over sizes [start, N] of one class, plus an always-true
    # column N + 1, so that argmax lands on the sentinel when nothing switches.
    switch = np.empty((L, N + 2), dtype=bool)
    switch[:, N + 1] = True
    for t in range(T - 1, -1, -1):
        lo = min(starts)  # lowest frontier one epoch later, over all locations
        if lo > N and not values:
            # Every frontier one epoch later is past the file size, so no
            # class is searched at this epoch or an earlier one: their
            # columns keep the sentinel and their costs would go unread.
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

    modes = tuple(mm.mode_of(l + 1) for l in range(L))
    tp = ThresholdPolicy(
        k_star_idx=ks_idx,
        modes=modes,
        grid_step=spec.grid_step,
        file_size=spec.file_size,
        horizon=T,
    )
    return tp, ValueTable(v, spec.grid_step, T) if values else None
