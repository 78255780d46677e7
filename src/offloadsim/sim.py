"""Monte-Carlo experiment engine.

One run samples an environment (Wi-Fi coverage, per-location rates,
start location, movement trajectory), plans once per scheme, and walks
the transfer slot by slot.  Schemes are compared on common random
numbers: every scheme in a run sees the identical environment and
trajectory, and runs are seeded by (seed, run index) substreams so
results do not depend on worker count or execution order.

Sweep points that differ only in the deadline share each run's work.  The
run samples its environment and path and plans once, at the longest
horizon, and a point with horizon T walks the first T slots of that path
with the last T epochs of the plans.  That is exactly what sampling and
planning at T give: the streams do not depend on the horizon, and the
model is time-homogeneous with the penalty charged only at the horizon.

The exact planner is given the sampled per-location rates; the threshold
planner is given only the configured mean rates, planning from summary
information the way a device without per-location measurements would.

The three heuristics plan nothing.  No-offload sends over cellular
whenever anything is left; OTSO uses Wi-Fi where covered and cellular
elsewhere.  Wiffler uses Wi-Fi where covered; elsewhere it waits only
when the Wi-Fi capacity it expects before the deadline covers the
remaining size scaled by a conservatism factor ``theta``.  It predicts
that capacity from a sliding window of completed Wi-Fi encounters:
encounters arrive once per mean gap between encounter starts and each
moves the mean amount per encounter, and with no encounter yet it
predicts nothing.  The history depends only on the path, so the means
are computed once per run (``wiffler_means``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dp
from .config import DEFAULT_SWEEP_VALUES, ScenarioConfig
from .errors import ConfigError, SchemeError
from .model import Action, NetworkModel, ProblemSpec, admissible_actions, transfer_steps
from .threshold import LocationMode, MonotoneModel, solve_monotone

SCHEMES = ("general", "monotone", "no-offload", "otso", "wiffler")


def build_grid_mobility(rows: int, cols: int, p_stay: float) -> np.ndarray:
    """Sticky random walk on a rows x cols grid, 4-neighbourhood, no wrap.

    The walker stays put with probability ``p_stay`` and otherwise moves
    to one of its von Neumann neighbours uniformly; cells with fewer
    neighbours split the leaving mass among those they have.
    """
    if rows < 1 or cols < 1:
        raise ConfigError("grid must be at least 1x1")
    if not 0.0 <= p_stay <= 1.0:
        raise ConfigError(f"p_stay must be in [0, 1], got {p_stay!r}")
    L = rows * cols
    P = np.zeros((L, L))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            neighbours = []
            if r > 0:
                neighbours.append(i - cols)
            if r < rows - 1:
                neighbours.append(i + cols)
            if c > 0:
                neighbours.append(i - 1)
            if c < cols - 1:
                neighbours.append(i + 1)
            if not neighbours:
                P[i, i] = 1.0
                continue
            P[i, i] = p_stay
            share = (1.0 - p_stay) / len(neighbours)
            for j in neighbours:
                P[i, j] = share
    return P


@functools.lru_cache(maxsize=64)
def _shared_grid_mobility(rows: int, cols: int, p_stay: float) -> np.ndarray:
    """``build_grid_mobility``, built once per grid and shared read-only."""
    P = build_grid_mobility(rows, cols, p_stay)
    P.setflags(write=False)
    return P


def truncated_normals(rng, mean: float, std: float, size: int) -> np.ndarray:
    """The first ``size`` non-negative draws of ``rng.normal(mean, std)``,
    drawn in batches: the values that drawing one at a time and rejecting
    negatives returns.  ``std <= 0`` gives ``max(mean, 0)``."""
    if std <= 0:
        return np.full(size, max(mean, 0.0))
    kept = np.empty(0)
    while kept.size < size:
        x = rng.normal(mean, std, size=size)
        kept = np.concatenate((kept, x[x >= 0]))
    return kept[:size]


def sample_instance(cfg: ScenarioConfig, rng):
    """Draw one environment: Wi-Fi set, per-location rates, start location.

    Consumes fixed substreams (coverage, cellular rates, Wi-Fi rates,
    start location) so changing one distribution parameter leaves the
    other draws untouched.
    """
    g_wifi, g_cell, g_wrate, g_init = rng.spawn(4)
    L = cfg.num_locations
    covered = g_wifi.random(L) < cfg.wifi_prob
    mu_c = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    mu_w = cfg.rate_mbit_per_slot(cfg.mu_wifi_mbps)
    std = cfg.rate_mbit_per_slot(cfg.rate_std_mbps)

    rate = np.zeros((L, 3))
    price = np.zeros((L, 3))
    rate[:, Action.CELLULAR] = truncated_normals(g_cell, mu_c, std, L)
    rate[covered, Action.WIFI] = truncated_normals(g_wrate, mu_w, std, L)[covered]
    price[:, Action.CELLULAR] = cfg.price_per_mbit

    model = NetworkModel(
        num_locations=L,
        wifi_locations=frozenset((np.flatnonzero(covered) + 1).tolist()),
        mobility=_shared_grid_mobility(cfg.grid_rows, cfg.grid_cols, cfg.p_stay),
        price=price,
        rate=rate,
    )
    spec = ProblemSpec(
        file_size=cfg.file_mbit,
        horizon=cfg.horizon,
        grid_step=cfg.grid_step_mbit,
        penalty=cfg.make_penalty(),
        initial_location=int(g_init.integers(1, L + 1)),
    )
    return model, spec


def sample_trajectory(model: NetworkModel, spec: ProblemSpec, rng) -> list:
    """Location per slot, starting from the problem's initial location."""
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


def means_model(cfg: ScenarioConfig, model: NetworkModel, spec: ProblemSpec) -> MonotoneModel:
    """The frontier planner's input for a sampled instance: its Wi-Fi set and
    mobility with the configured mean rates instead of the sampled ones."""
    mu_c = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    mu_w = cfg.rate_mbit_per_slot(cfg.mu_wifi_mbps)
    return MonotoneModel(
        num_locations=model.num_locations,
        wifi_locations=model.wifi_locations,
        mobility=model.mobility,
        mu_cellular=mu_c,
        mu_wifi=mu_w,
        cellular_cost=mu_c * cfg.price_per_mbit,
        penalty=spec.penalty,
    )


class RunTables(NamedTuple):
    """What every episode of one run reads, built once per run by
    ``run_tables``: per location (index ``l - 1``) each action's rate, price
    and grid steps per slot, and whether the location has Wi-Fi."""

    model: NetworkModel
    grid_step: float
    rate: list
    price: list
    steps: list
    covered: list


def run_tables(model: NetworkModel, spec: ProblemSpec) -> RunTables:
    rate = model.rate.tolist()
    wifi = model.wifi_locations
    return RunTables(
        model,
        spec.grid_step,
        rate,
        model.price.tolist(),
        # idle, cellular and Wi-Fi; idle and Wi-Fi off coverage never move
        [[0, transfer_steps(spec, c), transfer_steps(spec, w) if w else 0] for _, c, w in rate],
        [l in wifi for l in range(1, model.num_locations + 1)],
    )


def wiffler_means(path, wifi_rate, window: int) -> list:
    """Wiffler's encounter means along ``path``: entry ``t - 1`` is ``(mean
    gap, mean amount)`` over the last ``window`` encounters completed by
    slot ``t``, or None before the first one ends.

    ``wifi_rate[l - 1]`` is location ``l``'s Wi-Fi amount per slot, or None
    off coverage.  An encounter runs from entering coverage to leaving it;
    its gap is the slots since the previous encounter's start (the first
    counts from slot 0, so gaps are >= 1) and its amount is its slot count
    times its mean rate.
    """
    history = deque(maxlen=window)  # (gap, amount) per completed encounter
    means = None
    out = []
    in_wifi = False
    prev_start = start = slots = 0
    rate_sum = 0.0
    for t, l in enumerate(path, 1):
        r = wifi_rate[l - 1]
        if r is not None:
            if not in_wifi:
                in_wifi = True
                start, slots, rate_sum = t, 0, 0.0
            slots += 1
            rate_sum += r
        elif in_wifi:
            in_wifi = False
            history.append((start - prev_start, slots * (rate_sum / slots)))
            prev_start = start
            n = len(history)
            means = (sum(g for g, _ in history) / n, sum(a for _, a in history) / n)
        out.append(means)
    return out


class WifflerPlan(NamedTuple):
    """Wiffler's parameters and its encounter means along ``path``
    (``wiffler_means``); a walk on another path computes its own."""

    theta: float
    window: int
    path: list = ()
    means: list = ()


class Decisions(NamedTuple):
    """One scheme's decisions for an episode, as data that ``run_episode``
    reads inline.  With ``n > 0`` grid steps left at location ``l`` in slot
    ``t``, the action is given by the fields set besides ``run``:

    - ``table`` (general): ``table(t - 1, l - 1, n)``, the exact planner's
      action table read from an epoch offset;
    - ``frontier`` and ``actions`` (monotone): cellular when
      ``n >= frontier[l - 1][t - 1]``, else ``actions[l - 1]``;
    - ``actions`` alone (no-offload, OTSO): ``actions[l - 1]``;
    - ``wiffler``: Wi-Fi where covered; elsewhere idle when the predicted
      Wi-Fi capacity covers ``theta`` times the remaining size, else cellular.
    """

    run: RunTables
    table: object = None
    frontier: list = None
    actions: list = None
    wiffler: WifflerPlan = None


def policy_decisions(run: RunTables, policy: dp.Policy, offset: int = 0) -> Decisions:
    """The exact planner's table; slot t reads epoch ``t + offset``, so a
    plan for a longer horizon serves a shorter one from its last epochs."""
    return Decisions(run, table=policy.actions[offset:].item)


class FrontierRows(NamedTuple):
    """A frontier plan as lists, built once per plan by ``frontier_rows``:
    per location its frontier at every epoch (never reached at Wi-Fi-faster
    locations) and its action below the frontier."""

    frontier: list
    below: list

    def decisions(self, run: RunTables, offset: int = 0) -> Decisions:
        """``threshold.decide`` on these frontiers, with the epoch ``offset``
        of ``policy_decisions``."""
        frontier = [row[offset:] for row in self.frontier] if offset else self.frontier
        return Decisions(run, frontier=frontier, actions=self.below)


def frontier_rows(tp) -> FrontierRows:
    never = [math.inf] * tp.horizon  # Wi-Fi-faster locations always use Wi-Fi
    return FrontierRows(
        [
            never if mode is LocationMode.WIFI_FASTER else row
            for row, mode in zip(tp.k_star_idx.tolist(), tp.modes)
        ],
        [int(Action.IDLE if mode is LocationMode.NO_WIFI else Action.WIFI) for mode in tp.modes],
    )


def wifi_rates(run: RunTables) -> list:
    """Each location's Wi-Fi amount per slot, or None off coverage."""
    return [w if c else None for (_, _, w), c in zip(run.rate, run.covered)]


_CELLULAR, _WIFI = int(Action.CELLULAR), int(Action.WIFI)


def heuristic_decisions(scheme: str, run: RunTables, cfg: ScenarioConfig, path=()) -> Decisions:
    """No-offload, OTSO or Wiffler.  Wiffler's encounter means are computed
    along ``path`` when one is given, else by the walk for its own path."""
    if scheme == "no-offload":  # cellular everywhere while something is left
        return Decisions(run, actions=[_CELLULAR] * len(run.covered))
    if scheme == "otso":  # Wi-Fi where covered, else cellular
        return Decisions(run, actions=[_WIFI if c else _CELLULAR for c in run.covered])
    if scheme == "wiffler":
        window = cfg.wiffler_window
        means = wiffler_means(path, wifi_rates(run), window) if path else ()
        return Decisions(run, wiffler=WifflerPlan(cfg.wiffler_theta, window, path, means))
    raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def make_agent(scheme: str, model: NetworkModel, spec: ProblemSpec, cfg: ScenarioConfig) -> Decisions:
    """Plan (where the scheme plans) and return its decisions for one episode."""
    run = run_tables(model, spec)
    if scheme == "general":
        return policy_decisions(run, dp.solve(model, spec, values=False)[0])
    if scheme == "monotone":
        mm = means_model(cfg, model, spec)
        return frontier_rows(solve_monotone(mm, spec, values=False)[0]).decisions(run)
    return heuristic_decisions(scheme, run, cfg)


class EpisodeResult(NamedTuple):
    completed: bool
    total_payment: float
    penalty_paid: float
    total_cost: float
    slots_cellular: int
    slots_wifi: int
    slots_waiting: int
    trajectory: tuple  # (t, location, size before acting, action) per slot used


_ACTIONS_WITH_WIFI = (0, 1, 2)
_ACTIONS_WITHOUT_WIFI = (0, 1)


def run_episode(
    decisions: Decisions, model: NetworkModel, spec: ProblemSpec, *, rng=None, trajectory=None
) -> EpisodeResult:
    """Walk one transfer: location from the trajectory, action from the
    ``decisions``, size and payment from the model's rates and prices,
    penalty on whatever is left at the horizon.

    The remaining size is kept as its grid index ``n``: a send moves it
    down by ``transfer_steps`` of the slot's rate, as ``next_file_size``
    does, and is billed for at most what was left, as ``payment`` is.
    Decisions are read only while ``n > 0``, and every action is checked
    against the location's coverage."""
    if trajectory is None:
        if rng is None:
            raise ValueError("run_episode needs either a trajectory or an rng")
        trajectory = sample_trajectory(model, spec, rng)
    if len(trajectory) < spec.horizon:
        raise ValueError("trajectory shorter than the horizon")
    path = trajectory[: spec.horizon]
    model.check_location(min(path))
    model.check_location(max(path))
    run = decisions.run
    if run.model is not model or run.grid_step != spec.grid_step:
        raise ValueError("decisions were built for another model or size grid")

    step = spec.grid_step
    rate, price, steps, covered = run.rate, run.price, run.steps, run.covered
    table, frontier = decisions.table, decisions.frontier
    actions, wiffler = decisions.actions, decisions.wiffler
    if wiffler is not None:
        theta = wiffler.theta
        horizon = spec.horizon
        means = wiffler.means
        if wiffler.path[: len(path)] != path:
            means = wiffler_means(path, wifi_rates(run), wiffler.window)

    n = spec.grid_points
    pay = 0.0
    counts = [0, 0, 0]
    trace = []
    for t, l in enumerate(path, 1):
        if not n:
            break
        i = l - 1
        k = n * step
        if actions is not None:
            a = 1 if frontier is not None and n >= frontier[i][t - 1] else actions[i]
        elif table is not None:
            a = table(t - 1, i, n)
        elif covered[i]:
            a = 2
        else:
            m = means[t - 1]
            left = horizon - t
            # the predicted Wi-Fi capacity, then the waiting rule
            predicted = (left / m[0]) * m[1] if m is not None and left > 0 else 0.0
            a = 0 if predicted >= theta * k else 1
        if a not in (_ACTIONS_WITH_WIFI if covered[i] else _ACTIONS_WITHOUT_WIFI):
            raise SchemeError(
                f"scheme chose action {a} at location {l}, which only admits "
                f"{[x.name for x in admissible_actions(model, l)]}"
            )
        trace.append((t, l, k, a))
        counts[a] += 1
        if a:
            r = rate[i][a]
            pay += (r if r < k else k) * price[i][a]  # min(k, r)
            n -= steps[i][a]
            if n < 0:
                n = 0
    pen = float(spec.penalty(n * step)) if n else 0.0
    return EpisodeResult(
        completed=n == 0,
        total_payment=pay,
        penalty_paid=pen,
        total_cost=pay + pen,
        slots_cellular=counts[Action.CELLULAR],
        slots_wifi=counts[Action.WIFI],
        slots_waiting=counts[Action.IDLE],
        trajectory=tuple(trace),
    )


@dataclass(frozen=True)
class AggregateMetrics:
    runs: int
    completion_probability: float
    completion_ci: float
    mean_total_cost: float
    cost_ci: float
    mean_payment: float
    payment_ci: float
    mean_slots_cellular: float
    mean_slots_wifi: float
    mean_slots_waiting: float


def _half_width(x: np.ndarray) -> float:
    n = x.size
    if n < 2:
        return 0.0
    return 1.96 * float(np.std(x, ddof=1)) / math.sqrt(n)


def aggregate_metrics(samples: "SchemeSamples") -> AggregateMetrics:
    n = samples.total_cost.size
    p = float(samples.completed.mean())
    return AggregateMetrics(
        runs=n,
        completion_probability=p,
        completion_ci=1.96 * math.sqrt(p * (1.0 - p) / n) if n else 0.0,
        mean_total_cost=float(samples.total_cost.mean()),
        cost_ci=_half_width(samples.total_cost),
        mean_payment=float(samples.payment.mean()),
        payment_ci=_half_width(samples.payment),
        mean_slots_cellular=float(samples.slots_cellular.mean()),
        mean_slots_wifi=float(samples.slots_wifi.mean()),
        mean_slots_waiting=float(samples.slots_waiting.mean()),
    )


@dataclass(frozen=True)
class SchemeSamples:
    total_cost: np.ndarray
    payment: np.ndarray
    completed: np.ndarray
    slots_cellular: np.ndarray
    slots_wifi: np.ndarray
    slots_waiting: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    sweep_axis: str
    sweep_values: tuple
    schemes: tuple
    config: ScenarioConfig
    metrics: dict  # (sweep value, scheme) -> AggregateMetrics
    samples: dict  # (sweep value, scheme) -> SchemeSamples

    CSV_COLUMNS = (
        "sweep_value",
        "scheme",
        "runs",
        "completion_prob",
        "completion_ci",
        "mean_cost",
        "cost_ci",
        "mean_payment",
        "payment_ci",
        "slots_cellular",
        "slots_wifi",
        "slots_waiting",
    )

    def rows(self):
        for value in self.sweep_values:
            for scheme in self.schemes:
                m = self.metrics[(value, scheme)]
                yield (
                    repr(value),
                    scheme,
                    str(m.runs),
                    repr(m.completion_probability),
                    repr(m.completion_ci),
                    repr(m.mean_total_cost),
                    repr(m.cost_ci),
                    repr(m.mean_payment),
                    repr(m.payment_ci),
                    repr(m.mean_slots_cellular),
                    repr(m.mean_slots_wifi),
                    repr(m.mean_slots_waiting),
                )

    def to_csv_text(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        lines.extend(",".join(row) for row in self.rows())
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_json_dict(self) -> dict:
        return {
            "sweep_axis": self.sweep_axis,
            "sweep_values": list(self.sweep_values),
            "schemes": list(self.schemes),
            "config": self.config.to_dict(),
            "metadata": {
                "initial_location": "uniform over locations, drawn per run",
                "rates": "drawn once per run, static within the episode",
                "rng": "per-run substreams keyed by (seed, run index); "
                "schemes share each run's environment and trajectory",
            },
            "rows": [dict(zip(self.CSV_COLUMNS, row)) for row in self.rows()],
        }

    def write_json(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _run_block(cfgs: tuple, schemes: tuple, run_indices) -> list:
    """Walk runs ``run_indices`` at the sweep points ``cfgs``, which differ
    only in their deadline, sampling and planning each run once at the
    longest horizon.  Returns per run one ``{scheme: record}`` per point."""
    horizons = [c.horizon for c in cfgs]
    top = cfgs[horizons.index(max(horizons))]
    out = []
    for j in run_indices:
        inst_rng = np.random.default_rng(
            np.random.SeedSequence(top.seed, spawn_key=(j, 0))
        )
        traj_rng = np.random.default_rng(
            np.random.SeedSequence(top.seed, spawn_key=(j, 1))
        )
        model, spec = sample_instance(top, inst_rng)
        traj = sample_trajectory(model, spec, traj_rng)
        run = run_tables(model, spec)
        policy = frontier = None
        if "general" in schemes:
            policy = dp.solve(model, spec, values=False)[0]
        if "monotone" in schemes:
            mm = means_model(top, model, spec)
            frontier = frontier_rows(solve_monotone(mm, spec, values=False)[0])
        shared = {  # the heuristics' decisions do not depend on the deadline
            s: heuristic_decisions(s, run, top, traj)
            for s in schemes
            if s not in ("general", "monotone")
        }
        recs = []
        for horizon in horizons:
            offset = spec.horizon - horizon
            spec_t = dataclasses.replace(spec, horizon=horizon) if offset else spec
            rec = {}
            for scheme in schemes:
                if scheme == "general":
                    x = policy_decisions(run, policy, offset)
                elif scheme == "monotone":
                    x = frontier.decisions(run, offset)
                else:
                    x = shared[scheme]
                ep = run_episode(x, model, spec_t, trajectory=traj)
                rec[scheme] = (
                    ep.total_cost,
                    ep.total_payment,
                    1.0 if ep.completed else 0.0,
                    ep.slots_cellular,
                    ep.slots_wifi,
                    ep.slots_waiting,
                )
            recs.append(rec)
        out.append(recs)
    return out


def _run_block_star(args):
    return _run_block(*args)


def available_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count (None if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def worker_count(jobs: int, runs: int, cpus) -> int:
    """Processes to split ``runs`` episodes over when ``jobs`` are asked
    for: at most one per run and one per CPU (``cpus`` None counts as 1)."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    return min(jobs, runs, cpus or 1)


def run_experiment(
    cfg: ScenarioConfig,
    schemes,
    sweep_axis: str = None,
    sweep_values=None,
    *,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep one parameter, run ``cfg.runs`` paired episodes per point and
    scheme, and aggregate.  ``jobs > 1`` splits runs across processes
    (see ``worker_count``); output is identical regardless of the split."""
    schemes = tuple(schemes)
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
    axis = sweep_axis or cfg.sweep_axis
    values = tuple(sweep_values if sweep_values is not None else ())
    if not values:
        values = tuple(cfg.sweep_values) or DEFAULT_SWEEP_VALUES[axis]

    # Every point is validated before any episode is walked.
    points = [cfg.with_sweep_value(axis, value) for value in values]
    groups = {}  # point config with the deadline reset -> indices of its points
    for i, p in enumerate(points):
        key = dataclasses.replace(p, deadline_minutes=cfg.deadline_minutes)
        groups.setdefault(key, []).append(i)

    workers = worker_count(jobs, cfg.runs, available_cpus())
    indices = list(range(cfg.runs))
    tasks = [
        (group, indices[w::workers]) for group in groups.values() for w in range(workers)
    ]
    blocks = [(tuple(points[i] for i in group), schemes, idx) for group, idx in tasks]
    if workers > 1:
        from multiprocessing import Pool  # imported here: a serial run never needs it

        with Pool(processes=workers) as pool:
            results = pool.map(_run_block_star, blocks)
    else:
        results = [_run_block(*block) for block in blocks]
    records = [[None] * cfg.runs for _ in points]  # [point][run] -> {scheme: record}
    for (group, idx), block in zip(tasks, results):
        for j, recs in zip(idx, block):
            for i, rec in zip(group, recs):
                records[i][j] = rec

    metrics = {}
    samples = {}
    for value, recs in zip(values, records):
        for scheme in schemes:
            arr = np.array([rec[scheme] for rec in recs], dtype=float)
            ss = SchemeSamples(
                total_cost=arr[:, 0],
                payment=arr[:, 1],
                completed=arr[:, 2],
                slots_cellular=arr[:, 3],
                slots_wifi=arr[:, 4],
                slots_waiting=arr[:, 5],
            )
            samples[(value, scheme)] = ss
            metrics[(value, scheme)] = aggregate_metrics(ss)

    return ExperimentResult(
        sweep_axis=axis,
        sweep_values=values,
        schemes=schemes,
        config=cfg,
        metrics=metrics,
        samples=samples,
    )
