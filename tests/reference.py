"""Scalar reference implementations that the tests compare the package to.

The package reads every scheme as per-run data and samples, plans and
walks in batches.  The functions here are the same rules written one
state or one draw at a time, on the public model primitives: the three
heuristics' decision rules with Wiffler's encounter history, the exact
planner's action value, and the rejection sampler for the rates.
"""

from collections import deque
from dataclasses import dataclass, field

from offloadsim.model import (
    Action,
    NetworkModel,
    ProblemSpec,
    State,
    payment,
    slot_payment,
    transfer_steps,
)


def no_offload_decide(s: State) -> Action:
    """Cellular at all times (idle once nothing is left)."""
    return Action.CELLULAR if s.k > 0 else Action.IDLE


def otso_decide(model: NetworkModel, s: State) -> Action:
    """Wi-Fi whenever available, cellular otherwise, idle when done."""
    if s.k <= 0:
        return Action.IDLE
    return Action.WIFI if model.has_wifi(s.l) else Action.CELLULAR


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


def truncated_normal(rng, mean: float, std: float) -> float:
    """Normal draw rejected until non-negative (exact at these scales)."""
    if std <= 0:
        return max(mean, 0.0)
    while True:
        x = rng.normal(mean, std)
        if x >= 0:
            return float(x)
