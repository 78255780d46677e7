"""Structural checks on solved instances.

The planners' outputs obey a family of order properties: costs-to-go grow
with the remaining size and with time pressure, free transfer beats
idling wherever it is available, and under the simplified cost model the
decision flips at most once along the size axis with frontiers that move
monotonically.  These checks scan solved tables for violations and report
the first counterexample; the command-line ``verify`` subcommand and the
test suite both run them.
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
from .sim import means_model, sample_instance
from .threshold import ThresholdPolicy, solve_monotone

_REL_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


def _tol(values: np.ndarray) -> float:
    return _REL_TOL * max(1.0, float(np.abs(values).max()))


def check_value_monotone_in_size(vt: dp.ValueTable, name: str = "lemma1a") -> CheckResult:
    """Cost-to-go never drops when the remaining size grows."""
    v = vt.values
    diff = v[:, :, 1:] - v[:, :, :-1]
    bad = np.argwhere(diff < -_tol(v))
    if bad.size:
        t, l, n = bad[0]
        return CheckResult(
            name,
            "fail",
            f"value(t={t + 1}, k={(n + 1) * vt.grid_step}, l={l + 1}) < "
            f"value at k={n * vt.grid_step}",
        )
    return CheckResult(name, "pass")


def check_value_monotone_in_time(vt: dp.ValueTable, name: str = "lemma1b") -> CheckResult:
    """Cost-to-go never drops as the deadline gets closer (simplified cost)."""
    v = vt.values
    diff = v[1:] - v[:-1]
    bad = np.argwhere(diff < -_tol(v))
    if bad.size:
        t, l, n = bad[0]
        return CheckResult(
            name,
            "fail",
            f"value(t={t + 2}, k={n * vt.grid_step}, l={l + 1}) < value(t={t + 1}, ...)",
        )
    return CheckResult(name, "pass")


def check_wifi_preference(
    model: NetworkModel,
    spec: ProblemSpec,
    policy: dp.Policy,
    vt: dp.ValueTable,
    name: str = "lemma2",
) -> CheckResult:
    """Where Wi-Fi is available: idling never beats it, and if Wi-Fi is at
    least as fast as cellular it is chosen outright (simplified cost)."""
    N = spec.grid_points
    arange = np.arange(N + 1)
    tol = _tol(vt.values)
    for l in sorted(model.wifi_locations):
        steps = transfer_steps(spec, model.rate_of(l, Action.WIFI))
        idx2 = np.maximum(arange - steps, 0)
        for t in range(1, spec.horizon + 1):
            w = model.mobility[l - 1] @ vt.values[t]
            gap = w - w[idx2]  # idle minus Wi-Fi action value
            bad = np.argwhere(gap < -tol)
            if bad.size:
                n = int(bad[0][0])
                return CheckResult(
                    name,
                    "fail",
                    f"idling beats Wi-Fi at (t={t}, k={n * spec.grid_step}, l={l})",
                )
        if model.rate_of(l, Action.CELLULAR) <= model.rate_of(l, Action.WIFI):
            acts = policy.actions[:, l - 1, 1:]
            bad = np.argwhere(acts != int(Action.WIFI))
            if bad.size:
                t, n = bad[0]
                return CheckResult(
                    name,
                    "fail",
                    f"Wi-Fi at least as fast as cellular but action at "
                    f"(t={t + 1}, k={(n + 1) * spec.grid_step}, l={l}) is not Wi-Fi",
                )
    return CheckResult(name, "pass")


def check_single_switch(
    policy: dp.Policy, model: NetworkModel, name: str = "theorem2"
) -> CheckResult:
    """Along the size axis (excluding the idle-at-zero cell) the decision is
    the location's free action up to one switch point and cellular after."""
    for l in range(1, model.num_locations + 1):
        low = Action.WIFI if model.has_wifi(l) else Action.IDLE
        for t in range(1, policy.horizon + 1):
            col = policy.actions[t - 1, l - 1, 1:]
            if col.size == 0:
                continue
            is_cell = col == int(Action.CELLULAR)
            if np.any(~is_cell & (col != int(low))):
                n = int(np.argwhere(~is_cell & (col != int(low)))[0][0]) + 1
                return CheckResult(
                    name,
                    "fail",
                    f"unexpected action {Action(int(col[n - 1])).name} at "
                    f"(t={t}, k={n * policy.grid_step}, l={l})",
                )
            if np.any(np.diff(is_cell.astype(np.int8)) < 0):
                n = int(np.argwhere(np.diff(is_cell.astype(np.int8)) < 0)[0][0]) + 1
                return CheckResult(
                    name,
                    "fail",
                    f"cellular gives way to {low.name} above "
                    f"(t={t}, k={n * policy.grid_step}, l={l}): more than one switch",
                )
    return CheckResult(name, "pass")


def check_threshold_monotone(tp: ThresholdPolicy, name: str = "theorem3") -> CheckResult:
    """Size frontiers never grow as time advances; the induced time
    frontiers never grow as the size grows."""
    ks = tp.k_star_idx
    bad = np.argwhere(ks[:, :-1] < ks[:, 1:])
    if bad.size:
        l, t = bad[0]
        return CheckResult(
            name,
            "fail",
            f"frontier at (l={l + 1}, t={t + 1}) is below the one at t={t + 2}",
        )
    sizes = np.arange(tp.grid_points + 1)
    for l in range(tp.num_locations):
        hit = ks[l][None, :] <= sizes[:, None]  # (N+1, T)
        any_hit = hit.any(axis=1)
        tstar = np.where(any_hit, hit.argmax(axis=1) + 1, tp.horizon + 1)
        bad = np.argwhere(tstar[:-1] < tstar[1:])
        if bad.size:
            n = int(bad[0][0])
            return CheckResult(
                name,
                "fail",
                f"time frontier grows from k={n * tp.grid_step} to "
                f"k={(n + 1) * tp.grid_step} at l={l + 1}",
            )
    return CheckResult(name, "pass")


def check_oracle(
    model: NetworkModel,
    spec: ProblemSpec,
    rel_tol: float = 1e-9,
    name: str = "oracle",
) -> CheckResult:
    """Planner value at the start state matches the brute-force optimum."""
    policy, vt = dp.solve(model, spec)
    s = State(spec.file_size, spec.initial_location)
    res = expectimax(model, spec, s, 1)
    got = vt.value(1, spec.file_size, spec.initial_location)
    err = abs(got - res.optimal_value) / max(1.0, abs(res.optimal_value))
    if err > rel_tol:
        return CheckResult(
            name,
            "fail",
            f"planner start value {got!r} vs brute force {res.optimal_value!r} "
            f"(relative error {err:.2e})",
        )
    if spec.grid_points > 0:
        chosen = policy.action(1, spec.file_size, spec.initial_location)
        if chosen not in res.optimal_action_at_root:
            return CheckResult(
                name,
                "fail",
                f"planner root action {chosen.name} not among brute-force "
                f"optima {[a.name for a in res.optimal_action_at_root]}",
            )
    return CheckResult(name, "pass")


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
    """Run the named checks on an instance sampled from the configuration.

    Checks that rely on the simplified cost model run against the
    means-based network; they are skipped (with the reason) when the
    configured penalty is not convex on the grid.
    """
    names = PROPERTY_NAMES if properties is None else properties
    names = check_names(names, "property", PROPERTY_NAMES)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(9000,)))
    model, spec = sample_instance(cfg, rng)
    convex = is_convex_on_grid(penalty_on_grid(spec.penalty, spec.grid_values))

    flat_needed = {"lemma1b", "lemma2", "theorem2", "theorem3"} & set(names)
    flat_policy = flat_vt = flat_net = tp = None
    if flat_needed and convex:
        mm = means_model(cfg, model, spec)
        flat_net = mm.to_network_model()
        flat_policy, flat_vt = dp.solve(flat_net, spec, flat_payment=True)
        tp, _ = solve_monotone(mm, spec, values=False)

    results = []
    for p in names:
        if p == "lemma1a":
            _, vt = dp.solve(model, spec)
            results.append(check_value_monotone_in_size(vt, name=p))
        elif p in ("lemma1b", "lemma2", "theorem2", "theorem3"):
            if not convex:
                results.append(
                    CheckResult(p, "skip", "penalty not convex on the size grid")
                )
            elif p == "lemma1b":
                results.append(check_value_monotone_in_time(flat_vt, name=p))
            elif p == "lemma2":
                results.append(
                    check_wifi_preference(flat_net, spec, flat_policy, flat_vt, name=p)
                )
            elif p == "theorem2":
                results.append(check_single_switch(flat_policy, flat_net, name=p))
            else:
                results.append(check_threshold_monotone(tp, name=p))
        elif p == "oracle":
            tiny_model, tiny_spec = sample_instance(oracle_config(cfg), rng)
            results.append(check_oracle(tiny_model, tiny_spec, name=p))
    return results
