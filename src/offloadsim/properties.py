"""Structural checks on solved instances.

The planners' outputs obey a family of order properties: costs-to-go grow
with the remaining size and with time pressure, free transfer beats
idling wherever it is available, and under the simplified cost model the
decision flips at most once along the size axis with frontiers that move
monotonically.  Each check tests whole tables and reports the first
counterexample in a fixed scan order; the command-line ``verify``
subcommand and the test suite both run them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import dp
from .config import MBIT_PER_MBYTE, PROPERTY_NAMES, ScenarioConfig, check_names
from .model import (
    Action,
    NetworkModel,
    ProblemSpec,
    State,
    is_convex_on_grid,
    penalty_on_grid,
    transfer_steps,
)
from .oracle import expectimax
from .sim import means_model, sample_runs
from .threshold import ThresholdPolicy, solve_monotone

_REL_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


def _tol(values: np.ndarray) -> float:
    return _REL_TOL * max(1.0, float(np.abs(values).max()))


def _first(bad: np.ndarray):
    """The index tuple of the first True cell of ``bad`` in C order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def check_value_monotone_in_size(vt: dp.ValueTable) -> CheckResult:
    """Cost-to-go never drops when the remaining size grows.  Scans epoch,
    location, size."""
    v = vt.values
    at = _first(v[:, :, 1:] - v[:, :, :-1] < -_tol(v))
    if at is None:
        return CheckResult("lemma1a", "pass")
    t, l, n = at
    return CheckResult(
        "lemma1a",
        "fail",
        f"value(t={t + 1}, k={(n + 1) * vt.grid_step}, l={l + 1}) < "
        f"value at k={n * vt.grid_step}",
    )


def check_value_monotone_in_time(vt: dp.ValueTable) -> CheckResult:
    """Cost-to-go never drops as the deadline gets closer (simplified cost).
    Scans epoch, location, size."""
    v = vt.values
    at = _first(v[1:] - v[:-1] < -_tol(v))
    if at is None:
        return CheckResult("lemma1b", "pass")
    t, l, n = at
    return CheckResult(
        "lemma1b",
        "fail",
        f"value(t={t + 2}, k={n * vt.grid_step}, l={l + 1}) < value(t={t + 1}, ...)",
    )


def check_wifi_preference(
    model: NetworkModel, spec: ProblemSpec, policy: dp.Policy, vt: dp.ValueTable
) -> CheckResult:
    """Where Wi-Fi is available: idling never beats it, and if Wi-Fi is at
    least as fast as cellular it is chosen outright (simplified cost).
    Scans location, then each test over epoch and size."""
    idx = np.arange(spec.grid_points + 1)
    tol = _tol(vt.values)
    for l in sorted(model.wifi_locations):
        steps = transfer_steps(spec, model.rate_of(l, Action.WIFI))
        w = model.mobility[l - 1] @ vt.values[1:]  # (epoch, size) cost-to-go after each epoch
        at = _first(w - w[:, np.maximum(idx - steps, 0)] < -tol)  # idle minus Wi-Fi
        if at is not None:
            t, n = at
            where = f"(t={t + 1}, k={n * spec.grid_step}, l={l})"
            return CheckResult("lemma2", "fail", f"idling beats Wi-Fi at {where}")
        if model.rate_of(l, Action.CELLULAR) <= model.rate_of(l, Action.WIFI):
            at = _first(policy.actions[:, l - 1, 1:] != int(Action.WIFI))
            if at is not None:
                t, n = at
                return CheckResult(
                    "lemma2",
                    "fail",
                    f"Wi-Fi at least as fast as cellular but action at "
                    f"(t={t + 1}, k={(n + 1) * spec.grid_step}, l={l}) is not Wi-Fi",
                )
    return CheckResult("lemma2", "pass")


def check_single_switch(policy: dp.Policy, model: NetworkModel) -> CheckResult:
    """Along the size axis (excluding the idle-at-zero cell) the decision is
    the location's free action up to one switch point and cellular after.
    Scans location, epoch, then in one column an unexpected action before
    a second switch, then size."""
    for l in range(1, model.num_locations + 1):
        low = Action.WIFI if model.has_wifi(l) else Action.IDLE
        acts = policy.actions[:, l - 1, 1:]  # size index n + 1 at column n
        cell = acts == int(Action.CELLULAR)
        bad = np.zeros((acts.shape[0], 2, acts.shape[1]), dtype=bool)
        bad[:, 0] = ~cell & (acts != int(low))
        bad[:, 1, :-1] = cell[:, :-1] & ~cell[:, 1:]  # cellular gives way
        at = _first(bad)
        if at is None:
            continue
        t, second, n = at
        where = f"(t={t + 1}, k={(n + 1) * policy.grid_step}, l={l})"
        if second:
            detail = f"cellular gives way to {low.name} above {where}: more than one switch"
        else:
            detail = f"unexpected action {Action(int(acts[t, n])).name} at {where}"
        return CheckResult("theorem2", "fail", detail)
    return CheckResult("theorem2", "pass")


def check_threshold_monotone(tp: ThresholdPolicy) -> CheckResult:
    """Size frontiers never grow as time advances (Theorem 3), which
    ``solve_monotone`` assumes but does not force on the frontiers it
    returns.  Scans location, epoch.

    The time frontiers a frontier table induces (the first epoch at which a
    size takes cellular) never grow with the size by construction: the
    epochs whose frontier is at most ``k`` only gain members as ``k`` grows."""
    ks = tp.k_star_idx
    at = _first(ks[:, :-1] < ks[:, 1:])
    if at is None:
        return CheckResult("theorem3", "pass")
    l, t = at
    return CheckResult(
        "theorem3", "fail", f"frontier at (l={l + 1}, t={t + 1}) is below the one at t={t + 2}"
    )


def check_oracle(model: NetworkModel, spec: ProblemSpec) -> CheckResult:
    """Planner value at the start state matches the brute-force optimum."""
    policy, vt = dp.solve(model, spec)
    s = State(spec.file_size, spec.initial_location)
    res = expectimax(model, spec, s, 1)
    got = vt.value(1, spec.file_size, spec.initial_location)
    err = abs(got - res.optimal_value) / max(1.0, abs(res.optimal_value))
    if err > _REL_TOL:
        return CheckResult(
            "oracle",
            "fail",
            f"planner start value {got!r} vs brute force {res.optimal_value!r} "
            f"(relative error {err:.2e})",
        )
    if spec.grid_points > 0:
        chosen = policy.action(1, spec.file_size, spec.initial_location)
        if chosen not in res.optimal_action_at_root:
            return CheckResult(
                "oracle",
                "fail",
                f"planner root action {chosen.name} not among brute-force "
                f"optima {[a.name for a in res.optimal_action_at_root]}",
            )
    return CheckResult("oracle", "pass")


def oracle_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """The scenario shrunk inside the oracle guard: a 2x2 grid, at most 4
    slots and 1-4 grid steps, everything else as configured."""
    steps = max(1, min(int(round(cfg.file_mbit / cfg.grid_step_mbit)), 4))
    return dataclasses.replace(
        cfg,
        grid_rows=2,
        grid_cols=2,
        deadline_minutes=min(cfg.horizon, 4) * cfg.slot_seconds / 60.0,
        file_mbytes=steps * cfg.grid_step_mbit / MBIT_PER_MBYTE,
    )


def run_verification(cfg: ScenarioConfig, properties=None) -> list:
    """Run the named checks, in the order named, on run 0's instance; the
    oracle checks run 0 of ``oracle_config(cfg)``.

    Checks that rely on the simplified cost model run against the
    means-based network; they are skipped (with the reason) when the
    configured penalty is not convex on the grid.
    """
    names = PROPERTY_NAMES if properties is None else properties
    names = check_names(names, "property", PROPERTY_NAMES)
    model, spec, _ = next(sample_runs(cfg, (0,)))
    checks = {
        "lemma1a": lambda: check_value_monotone_in_size(dp.solve(model, spec)[1]),
        "oracle": lambda: check_oracle(*next(sample_runs(oracle_config(cfg), (0,)))[:2]),
    }
    flat_cost = {  # they read the flat pair below, solved only if one is asked for
        "lemma1b": lambda: check_value_monotone_in_time(vt),
        "lemma2": lambda: check_wifi_preference(net, spec, policy, vt),
        "theorem2": lambda: check_single_switch(policy, net),
        "theorem3": lambda: check_threshold_monotone(tp),
    }
    if flat_cost.keys() & set(names) and is_convex_on_grid(
        penalty_on_grid(spec.penalty, spec.grid_values)
    ):
        mm = means_model(cfg, model, spec)
        net = mm.to_network_model()
        policy, vt = dp.solve(net, spec, flat_payment=True)
        tp, _ = solve_monotone(mm, spec, values=False)
        checks.update(flat_cost)
    skip = "penalty not convex on the size grid"
    return [checks[p]() if p in checks else CheckResult(p, "skip", skip) for p in names]
