"""Comparison heuristics: always-cellular, Wi-Fi-whenever-available (OTSO),
and the prediction-based Wiffler rule.

Wiffler waits for Wi-Fi only when the capacity it expects to encounter
before the deadline covers the remaining size scaled by a conservatism
factor.  Its predictor averages the inter-encounter period and the
per-encounter transferable amount over a sliding window of completed
Wi-Fi encounters; the exact estimator is pluggable because published
descriptions of the rule leave it open.

The Monte-Carlo walk reads each rule as data: no-offload and OTSO as one
action per location, Wiffler as its encounter means after each slot of
the path (``wiffler_means``), which depend on the path alone.
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


_CELLULAR, _WIFI = int(Action.CELLULAR), int(Action.WIFI)


def no_offload_actions(covered) -> list:
    """``no_offload_decide`` per location while something is left, as int
    action codes; ``covered`` flags each location's Wi-Fi coverage."""
    return [_CELLULAR] * len(covered)


def otso_actions(covered) -> list:
    """``otso_decide`` per location while something is left."""
    return [_WIFI if c else _CELLULAR for c in covered]


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

    def observe(self, t: int, wifi_rate) -> bool:
        """``wiffler_observe`` for a location already looked up: ``wifi_rate``
        is its Wi-Fi amount per slot, or None off coverage.  Returns whether
        an encounter ended, which is the only time the history changes."""
        in_wifi = wifi_rate is not None
        ended = self._in_wifi and not in_wifi
        if in_wifi:
            if not self._in_wifi:
                self._enc_start = t
                self._enc_slots = 0
                self._enc_rate_sum = 0.0
            self._enc_slots += 1
            self._enc_rate_sum += wifi_rate
        elif ended:
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
        return ended


def wiffler_observe(ws: WifflerState, model: NetworkModel, l: int, t: int) -> None:
    """Update the encounter history with the location seen at slot ``t``.

    Call once per slot, before deciding.  An encounter runs from entering
    Wi-Fi coverage to leaving it; it is recorded when it ends.
    """
    ws.observe(t, model.rate_of(l, Action.WIFI) if model.has_wifi(l) else None)


def encounter_means(history):
    """``(mean inter-meeting period, mean per-encounter amount)`` of the
    encounters in ``history``, or None when there are none or the mean
    period is not positive (nothing to predict from)."""
    if not history:
        return None
    mean_gap = sum(e.inter_meeting_time for e in history) / len(history)
    if mean_gap <= 0:
        return None
    mean_transfer = sum(e.transferred for e in history) / len(history)
    return mean_gap, mean_transfer


def wiffler_predict(ws: WifflerState, remaining_time: int) -> float:
    """Expected Wi-Fi capacity before the deadline.

    Encounters arrive once per mean inter-meeting period and each moves
    the mean per-encounter amount; with no history the estimate is zero
    (nothing known, assume nothing).
    """
    means = encounter_means(ws.history)
    if remaining_time <= 0 or means is None:
        return 0.0
    mean_gap, mean_transfer = means
    return (remaining_time / mean_gap) * mean_transfer


def wiffler_means(path, wifi_rate, window: int) -> list:
    """Wiffler's encounter means along ``path``: entry ``t - 1`` is
    ``encounter_means`` of the history once slots ``1..t`` are observed.

    ``wifi_rate[l - 1]`` is location ``l``'s Wi-Fi amount per slot, or None
    off coverage.  The history depends only on the path, not on the
    actions or the deadline, so one list serves every deadline of a run.
    """
    ws = WifflerState(window=window)
    means = None
    out = []
    for t, l in enumerate(path, 1):
        if ws.observe(t, wifi_rate[l - 1]):
            means = encounter_means(ws.history)
        out.append(means)
    return out


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
