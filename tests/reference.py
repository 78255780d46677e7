"""Scalar reference implementations that the tests compare the package to.

The package reads every scheme as per-run data and samples, plans and
walks in batches.  The functions here are the same rules written one
state or one draw at a time, on the public model primitives: the three
heuristics' decision rules with Wiffler's encounter history, the monotone
rule read off a frontier table one state at a time, the exact
planner's action value and its backward induction with a row per
(location, action), the rejection sampler for the rates, and the
trajectory walk on whole cumulative mobility rows.  It also holds
``make_agent``, one scheme's ``sim.plan_run`` decisions, and two order
checks on value tables that hold only under uniform coverage, so
``verify`` does not run them on its mixed-coverage default scenario.
"""

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from offloadsim import dp
from offloadsim.errors import DomainError
from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    State,
    check_location,
    grid_index,
    payment,
    slot_payment,
    transfer_steps,
)
from offloadsim.properties import CheckResult, _first, _tol
from offloadsim.sim import plan_run


def no_offload_decide(s: State) -> Action:
    """Cellular at all times (idle once nothing is left)."""
    return Action.CELLULAR if s.k > 0 else Action.IDLE


def otso_decide(model: NetworkModel, s: State) -> Action:
    """Wi-Fi whenever available, cellular otherwise, idle when done."""
    if s.k <= 0:
        return Action.IDLE
    return Action.WIFI if model.has_wifi(s.l) else Action.CELLULAR


def decide(tp, s: State, t: int) -> Action:
    """The monotone rule of a ``ThresholdPolicy`` at one state: idle when
    nothing is left, else cellular at or above the frontier, else Wi-Fi
    where covered and idle elsewhere."""
    if not 1 <= t <= tp.horizon:
        raise DomainError(f"epoch {t} outside 1..{tp.horizon}")
    n = grid_index(s.k, tp.grid_step, tp.grid_points)
    if n == 0:
        return Action.IDLE
    if n >= tp.k_star_idx[check_location(s.l, tp.num_locations) - 1, t - 1]:
        return Action.CELLULAR
    return Action.WIFI if s.l in tp.wifi_locations else Action.IDLE


@dataclass(frozen=True)
class Encounter:
    """One completed Wi-Fi visit."""

    inter_meeting_time: int  # slots from the previous encounter's start
    dwell_slots: int
    rate: float  # transferable amount per slot while connected

    @property
    def transferred(self) -> float:
        return self.dwell_slots * self.rate


@dataclass
class WifflerState:
    """Per-episode predictor state: conservatism factor, window length, and
    the ring of the last ``window`` completed encounters."""

    theta: float = 1.0
    window: int = 4
    history: deque = field(default_factory=deque)
    _in_wifi: bool = False
    _enc_start: int = 0
    _enc_slots: int = 0
    _enc_rate_sum: float = 0.0
    _prev_start: int = 0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def observe(self, t: int, wifi_rate) -> None:
        """``wiffler_observe`` for a location already looked up: ``wifi_rate``
        is its Wi-Fi amount per slot, or None off coverage."""
        in_wifi = wifi_rate is not None
        if in_wifi:
            if not self._in_wifi:
                self._enc_start = t
                self._enc_slots = 0
                self._enc_rate_sum = 0.0
            self._enc_slots += 1
            self._enc_rate_sum += wifi_rate
        elif self._in_wifi:
            self.history.append(
                Encounter(
                    inter_meeting_time=self._enc_start - self._prev_start,
                    dwell_slots=self._enc_slots,
                    rate=self._enc_rate_sum / self._enc_slots,
                )
            )
            self._prev_start = self._enc_start
            while len(self.history) > self.window:
                self.history.popleft()
        self._in_wifi = in_wifi


def wiffler_observe(ws: WifflerState, model: NetworkModel, l: int, t: int) -> None:
    """Update the encounter history with the location seen at slot ``t``.

    Call once per slot, before deciding.  An encounter runs from entering
    Wi-Fi coverage to leaving it; it is recorded when it ends.
    """
    ws.observe(t, model.rate_of(l, Action.WIFI) if model.has_wifi(l) else None)


def wiffler_predict(ws: WifflerState, remaining_time: int) -> float:
    """Expected Wi-Fi capacity before the deadline.

    Encounters arrive once per mean inter-meeting period and each moves
    the mean per-encounter amount; with no history the estimate is zero
    (nothing known, assume nothing).
    """
    history = ws.history
    if remaining_time <= 0 or not history:
        return 0.0
    mean_gap = sum(e.inter_meeting_time for e in history) / len(history)
    if mean_gap <= 0:
        return 0.0
    mean_transfer = sum(e.transferred for e in history) / len(history)
    return (remaining_time / mean_gap) * mean_transfer


def wiffler_decide(
    ws: WifflerState, model: NetworkModel, s: State, t: int, horizon: int
) -> Action:
    """Wi-Fi on the spot; off coverage, wait only if the predicted Wi-Fi
    capacity covers ``theta`` times the remaining size."""
    if s.k <= 0:
        return Action.IDLE
    if model.has_wifi(s.l):
        return Action.WIFI
    if wiffler_predict(ws, horizon - t) >= ws.theta * s.k:
        return Action.IDLE
    return Action.CELLULAR


def q_value(
    model: NetworkModel,
    spec: ProblemSpec,
    v_next,
    s: State,
    a: Action,
    *,
    flat_payment: bool = False,
) -> float:
    """Action value: immediate payment plus expected cost-to-go.

    ``v_next`` is the next epoch's slice of a ValueTable, indexed
    ``[location-1, k/step]``.  With ``flat_payment`` the cellular send is
    billed for the full slot even when the remainder is smaller.
    """
    a = Action(a)
    if a is Action.CELLULAR and flat_payment:
        pay = slot_payment(model, s.l, a)
    else:
        pay = payment(model, spec, s, a)
    n = spec.index_of(s.k)
    n_next = max(0, n - transfer_steps(spec, model.rate_of(s.l, a)))
    return pay + float(model.mobility[s.l - 1] @ v_next[:, n_next])


def reference_solve(
    model: NetworkModel,
    spec: ProblemSpec,
    *,
    flat_payment: bool = False,
    values: bool = True,
):
    """``dp.solve`` with its own next-size index row and payment row per
    (location, action), and a new expectation array per epoch: the
    arithmetic ``dp.solve`` must reproduce bit for bit."""
    L = model.num_locations
    N = spec.grid_points
    T = spec.horizon
    v = dp.cost_lattice(spec, L, values)
    m = len(v)  # epoch t is stored at v[t % m]
    grid = spec.grid_values
    delta = np.zeros((T, L, N + 1), dtype=np.int8)

    # Per (location, action): next-size index row and immediate-payment row,
    # both constant over time.
    plans = []
    for li in range(L):
        # ties go to Wi-Fi, then cellular, then idle; Wi-Fi only where covered
        if model.has_wifi(li + 1):
            order = (Action.WIFI, Action.CELLULAR, Action.IDLE)
        else:
            order = (Action.CELLULAR, Action.IDLE)
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
                act[psi < best * (1.0 - dp.TIE_REL_TOL)] = int(a)
                best = np.minimum(best, psi)
            act[0] = int(Action.IDLE)
            v[t % m, li] = best
            delta[t, li] = act

    return (
        dp.Policy(delta, spec.grid_step),
        dp.ValueTable(v, spec.grid_step) if values else None,
    )


def truncated_normal(rng, mean: float, std: float) -> float:
    """Normal draw rejected until non-negative (exact at these scales)."""
    if std <= 0:
        return max(mean, 0.0)
    while True:
        x = rng.normal(mean, std)
        if x >= 0:
            return float(x)


def sample_trajectory_full_rows(model: NetworkModel, spec: ProblemSpec, rng) -> list:
    """``sim.sample_trajectory`` on the whole cumulative mobility rows: each
    move bisects the current location's row of ``np.cumsum(mobility, axis=1)``
    with one uniform draw, clamped to the last location."""
    T = spec.horizon
    l = spec.initial_location
    locs = [l]
    if T > 1:
        cum = np.cumsum(model.mobility, axis=1).tolist()
        L = model.num_locations
        for u in rng.random(T - 1).tolist():
            l = min(bisect_right(cum[l - 1], u) + 1, L)
            locs.append(l)
    return locs


def make_agent(scheme: str, model: NetworkModel, spec: ProblemSpec, cfg, path):
    """``scheme``'s decisions for one run along ``path``."""
    return plan_run((scheme,), model, spec, cfg, path)[0]


def check_cross_difference(
    model: NetworkModel, spec: ProblemSpec, vt: dp.ValueTable
) -> CheckResult:
    """Every two-size, two-action cost comparison has the sign that forces a
    single switch: away from Wi-Fi the gain of transmitting grows with the
    remaining size; on Wi-Fi the gain of paying for cellular rather than
    using free Wi-Fi shrinks with it (simplified cost).

    With ``D(k) = psi(k, a_hi) - psi(k, a_lo)``, the cross difference of
    sizes ``k_lo < k_hi`` is ``D(k_hi) - D(k_lo)``, so the sign holds for
    all pairs iff ``sign * D`` never drops below its running maximum by
    more than the tolerance.  A counterexample is reported with ``k_lo``
    at that maximum."""
    N = spec.grid_points
    if N < 1:
        return CheckResult("cross_difference", "skip", "size grid too small to compare")
    tol = _tol(vt.values)
    arange = np.arange(N + 1)
    grid = spec.grid_values
    w_all = model.mobility @ vt.values[1:]  # [t - 1, l - 1]: expected cost-to-go after epoch t at l

    def psi(l: int, a: Action) -> np.ndarray:
        """Action value with full-slot cellular billing at every (epoch, size)."""
        if a is Action.IDLE:
            pay = 0.0
        elif a is Action.CELLULAR:
            pay = slot_payment(model, l, a)
        else:
            pay = np.minimum(grid, model.rate_of(l, a)) * model.price_of(l, a)
        steps = transfer_steps(spec, model.rate_of(l, a))
        return pay + w_all[:, l - 1, np.maximum(arange - steps, 0)]

    for l in range(1, model.num_locations + 1):
        if model.has_wifi(l):
            if model.rate_of(l, Action.WIFI) > model.rate_of(l, Action.CELLULAR):
                continue  # switch structure only claimed for Wi-Fi no faster
            a_hi, a_lo = Action.WIFI, Action.CELLULAR
            sign = 1.0  # cross difference must be >= 0 here
        else:
            a_hi, a_lo = Action.CELLULAR, Action.IDLE
            sign = -1.0  # and <= 0 here
        d = sign * (psi(l, a_hi) - psi(l, a_lo))  # (T, N+1)
        at = _first(d < np.maximum.accumulate(d, axis=1) - tol)
        if at is not None:
            t, k_hi = at
            k_lo = int(np.argmax(d[t, :k_hi]))
            return CheckResult(
                "cross_difference",
                "fail",
                f"cross difference has the wrong sign at "
                f"(t={t + 1}, l={l}, k={k_hi * spec.grid_step} vs {k_lo * spec.grid_step})",
            )
    return CheckResult("cross_difference", "pass")


def check_increment_monotone(
    model: NetworkModel, spec: ProblemSpec, vt: dp.ValueTable
) -> CheckResult:
    """The value advantage of a cellular-sized step over the location's free
    step never shrinks as time advances (simplified cost)."""
    N = spec.grid_points
    arange = np.arange(N + 1)
    tol = _tol(vt.values)
    for l in range(1, model.num_locations + 1):
        d1 = transfer_steps(spec, model.rate_of(l, Action.CELLULAR))
        dj = (
            transfer_steps(spec, model.rate_of(l, Action.WIFI))
            if model.has_wifi(l)
            else 0
        )
        idx1 = np.maximum(arange - d1, 0)
        idxj = np.maximum(arange - dj, 0)
        col = vt.values[:, l - 1, :]
        gaps = col[:, idxj] - col[:, idx1]  # (T+1, N+1)
        at = _first(gaps[1:] < gaps[:-1] - tol)
        if at is not None:
            t, n = at
            return CheckResult(
                "increment_monotone",
                "fail",
                f"advantage shrinks from t={t + 1} to t={t + 2} at "
                f"(k={n * spec.grid_step}, l={l})",
            )
    return CheckResult("increment_monotone", "pass")
