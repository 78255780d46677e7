"""Comparison heuristics: always-cellular, Wi-Fi-whenever-available (OTSO),
and the prediction-based Wiffler rule.

Wiffler waits for Wi-Fi only when the capacity it expects to encounter
before the deadline covers the remaining size scaled by a conservatism
factor.  Its predictor averages the inter-encounter period and the
per-encounter transferable amount over a sliding window of completed
Wi-Fi encounters; the exact estimator is pluggable because published
descriptions of the rule leave it open.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .model import Action, NetworkModel, State


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
    if remaining_time <= 0 or not ws.history:
        return 0.0
    mean_gap = sum(e.inter_meeting_time for e in ws.history) / len(ws.history)
    if mean_gap <= 0:
        return 0.0
    mean_transfer = sum(e.transferred for e in ws.history) / len(ws.history)
    return (remaining_time / mean_gap) * mean_transfer


def wiffler_decide(
    ws: WifflerState, model: NetworkModel, s: State, t: int, horizon: int
) -> Action:
    """Wi-Fi on the spot; off coverage, wait only if the predicted Wi-Fi
    capacity covers ``theta`` times the remaining size."""
    return _wiffler_choice(ws, s.k, model.has_wifi(s.l), horizon - t)


def _wiffler_choice(ws: WifflerState, k: float, on_wifi: bool, remaining_time: int) -> Action:
    if k <= 0:
        return Action.IDLE
    if on_wifi:
        return Action.WIFI
    if wiffler_predict(ws, remaining_time) >= ws.theta * k:
        return Action.IDLE
    return Action.CELLULAR


# Per-episode agents for ``sim.run_episode``, which asks ``decide(n, l, t)``
# with ``n`` grid steps left and only while ``n > 0``, so the zero-size
# branches of the rules above never apply there.


class NoOffloadAgent:
    """``no_offload_decide`` for the walk."""

    def decide(self, n: int, l: int, t: int) -> Action:
        return Action.CELLULAR


class OtsoAgent:
    """``otso_decide`` for the walk, with the coverage looked up once."""

    def __init__(self, model: NetworkModel):
        self._choice = [
            Action.WIFI if l in model.wifi_locations else Action.CELLULAR
            for l in range(1, model.num_locations + 1)
        ]

    def decide(self, n: int, l: int, t: int) -> Action:
        return self._choice[l - 1]


class WifflerAgent:
    """``wiffler_observe`` then ``wiffler_decide`` for the walk, with each
    location's Wi-Fi rate looked up once."""

    def __init__(
        self, model: NetworkModel, horizon: int, grid_step: float, theta: float, window: int
    ):
        self._ws = WifflerState(theta=theta, window=window)
        rates = model.rate[:, Action.WIFI].tolist()
        self._wifi_rate = [
            r if l in model.wifi_locations else None for l, r in enumerate(rates, 1)
        ]
        self._horizon = horizon
        self._step = grid_step

    def decide(self, n: int, l: int, t: int) -> Action:
        rate = self._wifi_rate[l - 1]
        self._ws.observe(t, rate)
        return _wiffler_choice(self._ws, n * self._step, rate is not None, self._horizon - t)
