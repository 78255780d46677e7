"""Monte-Carlo experiment engine.

One run samples an environment (Wi-Fi coverage, per-location rates,
start location, movement trajectory), plans once per scheme, and walks
the transfer slot by slot.  Schemes are compared on common random
numbers: every scheme in a run sees the identical environment and
trajectory, and runs are seeded by (seed, run index) substreams so
results do not depend on worker count or execution order.

Sweep points that differ only in the deadline share each run's work.  The
run samples its environment and path once, at the longest horizon, and
``plan_run`` turns it into every scheme's decisions with one call per
planner.  A point with horizon T walks the first T slots of that path, and
``run_episode`` reads the last T epochs of the plans.  That is exactly
what sampling and planning at T give: the streams do not depend on the
horizon, and the model is time-homogeneous with the penalty charged only
at the horizon.  A plan that takes one action per location (no-offload,
OTSO) is walked once, at the longest horizon, for every point whose
horizon that walk finished within.

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
import warnings
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dp
from .config import MAX_SWEEP_RECORDS, ScenarioConfig, check_names
from .errors import ConfigError, GridRoundingWarning, SchemeError
from .model import (
    Action,
    NetworkModel,
    ProblemSpec,
    admissible_actions,
    check_location,
    check_number,
    penalty_on_grid,
    share_mobility,
    transfer_steps,
    walk_rows,
)
from .threshold import MonotoneModel, check_convex, solve_monotone

SCHEMES = ("general", "monotone", "no-offload", "otso", "wiffler")
SOLVERS = SCHEMES[:2]  # the schemes that plan: ``plan``'s solver names


def build_grid_mobility(rows: int, cols: int, p_stay: float) -> np.ndarray:
    """Sticky random walk on a rows x cols grid, 4-neighbourhood, no wrap.

    The walker stays put with probability ``p_stay`` and otherwise moves
    to one of its von Neumann neighbours uniformly; cells with fewer
    neighbours split the leaving mass among those they have.
    """
    rows = check_number(rows, "rows", 1, integer=True, error=ConfigError)
    cols = check_number(cols, "cols", 1, integer=True, error=ConfigError)
    p_stay = check_number(p_stay, "p_stay", 0, 1, error=ConfigError)
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
    """``build_grid_mobility``, built, checked and given its walk rows once
    per grid (``share_mobility``), and shared read-only."""
    return share_mobility(build_grid_mobility(rows, cols, p_stay))


def truncated_normals(rng, mean: float, std: float, size: int) -> np.ndarray:
    """The first ``size`` non-negative draws of ``rng.normal(mean, std)``,
    drawn in batches: the values that drawing one at a time and rejecting
    negatives returns.  ``std <= 0`` gives ``max(mean, 0)``."""
    if std <= 0:
        return np.full(size, max(mean, 0.0))
    x = rng.normal(mean, std, size=size)
    kept = x[x >= 0]
    while kept.size < size:
        x = rng.normal(mean, std, size=size)
        kept = np.concatenate((kept, x[x >= 0]))
    return kept[:size]


def sample_instance(cfg: ScenarioConfig, streams):
    """Draw one environment: Wi-Fi set, per-location rates, start location.

    Consumes four fixed substreams, ``streams``: coverage, cellular rates,
    Wi-Fi rates and start location, so changing one distribution parameter
    leaves the other draws untouched.
    """
    g_wifi, g_cell, g_wrate, g_init = streams
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
    return model, problem_spec(cfg, g_init.integers(1, L + 1))  # ProblemSpec stores an int


def problem_spec(cfg: ScenarioConfig, initial_location: int = 1) -> ProblemSpec:
    """The transfer task of a scenario, starting at ``initial_location``."""
    penalty = cfg.make_penalty()
    return ProblemSpec(cfg.file_mbit, cfg.horizon, cfg.grid_step_mbit, penalty, initial_location)


def sample_trajectory(model: NetworkModel, spec: ProblemSpec, rng) -> list:
    """Location per slot, starting from the problem's initial location; each
    move bisects the current location's ``walk_rows`` with one uniform draw."""
    T = spec.horizon
    l = spec.initial_location
    locs = [l]
    if T > 1:
        rows = walk_rows(model.mobility)
        for u in rng.random(T - 1).tolist():
            sums, dest = rows[l - 1]
            l = dest[bisect_right(sums, u)]
            locs.append(l)
    return locs


def means_model(cfg: ScenarioConfig, model: NetworkModel) -> NetworkModel:
    """The frontier planner's network for a sampled instance: ``model`` with
    the configured mean rates in place of the sampled ones.  Its prices are
    already the configured cellular price and free Wi-Fi."""
    rate = np.zeros_like(model.rate)
    rate[:, Action.CELLULAR] = cfg.rate_mbit_per_slot(cfg.mu_cellular_mbps)
    wifi_rows = [l - 1 for l in model.wifi_locations]
    rate[wifi_rows, Action.WIFI] = cfg.rate_mbit_per_slot(cfg.mu_wifi_mbps)
    return dataclasses.replace(model, rate=rate)


def sample_runs(cfg: ScenarioConfig, run_indices):
    """Per run of ``run_indices``, in order, its ``(model, spec, path)``
    drawn from the run's ``streams.run_streams``.  Every command samples
    here, so ``solve``, ``policy-map`` and ``verify`` see run 0."""
    from .streams import run_streams  # imported here: a process that samples nothing never needs it

    for inst_streams, traj_rng in run_streams(cfg.seed, run_indices):
        model, spec = sample_instance(cfg, inst_streams)
        yield model, spec, sample_trajectory(model, spec, traj_rng)


def plan(solver: str, cfg: ScenarioConfig, model: NetworkModel, spec: ProblemSpec, *, values=False):
    """``solver``'s ``(table, value table or None)`` for a sampled instance:
    ``general`` is the exact planner on its rates (``dp.solve``), and
    ``monotone`` the frontier planner (``solve_monotone``) on ``means_model``'s
    network, through the regime check ``MonotoneModel.from_network_model``."""
    check_names((solver,), "solver", SOLVERS)
    if solver == "general":
        return dp.solve(model, spec, values=values)
    mm = MonotoneModel.from_network_model(means_model(cfg, model), spec)
    return solve_monotone(mm, spec, values=values)


def check_plannable(schemes, points) -> None:
    """Raise, before anything is sampled, what a planner among ``schemes``
    raises on any instance of the scenarios ``points``: a lattice over
    budget (``dp.check_lattice``), or for ``monotone`` a penalty not convex
    on the size grid.  Points go longest first, the order in which
    ``_run_block`` walks each group of points that differ only in their
    deadline.
    Each point's spec is built even with no planner, so a rounded file size
    warns here, once; the sweep's workers ignore that warning
    (``_ignore_rounding``)."""
    planners = [s for s in schemes if s in SOLVERS]
    for cfg in sorted(points, key=lambda c: c.horizon, reverse=True):
        spec = problem_spec(cfg)
        if planners:
            dp.check_lattice(spec, cfg.num_locations)
        if "monotone" in planners:
            check_convex(penalty_on_grid(spec.penalty, spec.grid_values))


class RunTables(NamedTuple):
    """What every episode of one run reads, built once per run by
    ``plan_run``: the model, spec and path the run was planned for, and per
    location (index ``l - 1``) each action's rate, price and grid steps per
    slot, and whether the location has Wi-Fi."""

    model: NetworkModel
    spec: ProblemSpec
    path: list
    rate: list
    price: list
    steps: list
    covered: list


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
    # (gap, amount) per completed encounter; a window longer than the path
    # keeps every encounter, and a deque's length must fit a C ssize_t
    history = deque(maxlen=min(window, len(path)))
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


class Decisions(NamedTuple):
    """One scheme's decisions for a run, as data that ``run_episode`` reads
    inline, planned for the ``H = run.spec.horizon`` slots.  With ``n > 0``
    grid steps left at location ``l`` in slot ``t`` of a walk over
    ``T <= H`` slots, the plans' epoch index is ``e = t - 1 + H - T``, so a
    shorter deadline reads the last ``T`` epochs; the action is given by
    the fields set besides ``run``:

    - ``actions`` (no-offload, OTSO): ``actions[l - 1]``, one action per
      location whatever the epoch;
    - ``table`` (general, monotone): ``table(e, l - 1, n)``, the exact
      planner's action table, or the frontier planner's rule read the same
      way: cellular when ``n`` is at or above the frontier ``k_star_idx``,
      else Wi-Fi where covered and idle elsewhere;
    - ``theta`` and ``means`` (Wiffler): Wi-Fi where covered; elsewhere
      idle when the Wi-Fi capacity predicted from ``means[t - 1]``
      (``wiffler_means`` along ``run.path``) covers ``theta`` times the
      remaining size, else cellular.
    """

    run: RunTables
    table: object = None
    actions: list = None
    theta: float = None
    means: list = None


_IDLE, _CELLULAR, _WIFI = int(Action.IDLE), int(Action.CELLULAR), int(Action.WIFI)


def plan_run(schemes, model: NetworkModel, spec: ProblemSpec, cfg: ScenarioConfig, path) -> list:
    """Each of ``schemes``' decisions for one run along ``path``, the run's
    trajectory, planned for ``spec.horizon``: each planner's table from
    ``plan``, and Wiffler's encounter means along the path.  The path must
    cover the horizon and stay within the model's locations."""
    check_names(schemes, "scheme", SCHEMES)
    if len(path) < spec.horizon:
        raise ValueError("trajectory shorter than the horizon")
    check_location(min(path), model.num_locations)
    check_location(max(path), model.num_locations)
    covered = [l in model.wifi_locations for l in range(1, model.num_locations + 1)]
    run = RunTables(
        model,
        spec,
        path,
        model.rate.tolist(),
        model.price.tolist(),
        # idle, cellular and Wi-Fi; idle and Wi-Fi off coverage have rate 0
        transfer_steps(spec, model.rate).tolist(),
        covered,
    )
    plans = []
    for scheme in schemes:
        if scheme == "general":
            x = Decisions(run, table=plan(scheme, cfg, model, spec)[0].actions.item)
        elif scheme == "monotone":
            ks = plan(scheme, cfg, model, spec)[0].k_star_idx.tolist()
            below = [_WIFI if c else _IDLE for c in covered]

            def table(e, i, n):
                return _CELLULAR if n >= ks[i][e] else below[i]

            x = Decisions(run, table=table)
        elif scheme == "no-offload":  # cellular everywhere while something is left
            x = Decisions(run, actions=[_CELLULAR] * len(covered))
        elif scheme == "otso":  # Wi-Fi where covered, else cellular
            x = Decisions(run, actions=[_WIFI if c else _CELLULAR for c in covered])
        else:  # wiffler
            wifi_rate = [w if c else None for (_, _, w), c in zip(run.rate, covered)]
            means = wiffler_means(path, wifi_rate, cfg.wiffler_window)
            x = Decisions(run, theta=cfg.wiffler_theta, means=means)
        plans.append(x)
    return plans


class EpisodeResult(NamedTuple):
    """One walk's totals; the first six are a sweep record's columns, in
    ``SchemeSamples``' order."""

    total_cost: float
    total_payment: float
    completed: bool
    slots_cellular: int
    slots_wifi: int
    slots_waiting: int
    penalty_paid: float
    trajectory: tuple  # the location of each slot walked


_ACTIONS_WITH_WIFI = (0, 1, 2)
_ACTIONS_WITHOUT_WIFI = (0, 1)


def run_episode(decisions: Decisions, *, spec: ProblemSpec) -> EpisodeResult:
    """Walk one transfer along the first ``spec.horizon`` slots of the run's
    path: action from the ``decisions``, size and payment from the run's
    rates and prices, penalty on whatever is left at the horizon.

    The remaining size is kept as its grid index ``n``: a send moves it
    down by ``transfer_steps`` of the slot's rate, as ``next_file_size``
    does, and is billed for at most what was left, as ``payment`` is.
    Decisions are read only while ``n > 0``, and every action is checked
    against the location's coverage.  Decisions planned for a longer
    horizon are read from their last ``spec.horizon`` epochs; a spec that
    differs from the planned one in file size, size grid or penalty is
    refused.  It reads only the horizon, size, grid and penalty of ``spec``."""
    run = decisions.run
    planned = run.spec
    if planned is not spec and (
        planned.file_size != spec.file_size
        or planned.grid_step != spec.grid_step
        or (planned.penalty is not spec.penalty and planned.penalty != spec.penalty)
    ):
        raise ValueError("decisions were built for another file size, size grid or penalty")
    if planned.horizon < spec.horizon:
        raise ValueError(f"decisions were planned for {planned.horizon} slots, not {spec.horizon}")

    step = spec.grid_step
    rate, price, steps, covered = run.rate, run.price, run.steps, run.covered
    table, actions = decisions.table, decisions.actions
    theta, means, horizon = decisions.theta, decisions.means, spec.horizon
    shift = planned.horizon - horizon - 1  # slot t reads epoch index t + shift
    path = run.path[:horizon]

    n = spec.grid_points
    pay = 0.0
    counts = [0, 0, 0]
    for t, l in enumerate(path, 1):
        if not n:
            break
        i = l - 1
        k = n * step
        if actions is not None:
            a = actions[i]
        elif table is not None:
            a = table(t + shift, i, n)
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
                f"{[x.name for x in admissible_actions(run.model, l)]}"
            )
        counts[a] += 1
        if a:
            r = rate[i][a]
            pay += (r if r < k else k) * price[i][a]  # min(k, r)
            n -= steps[i][a]
            if n < 0:
                n = 0
    pen = float(spec.penalty(n * step)) if n else 0.0
    return EpisodeResult(
        total_cost=pay + pen,
        total_payment=pay,
        completed=n == 0,
        slots_cellular=counts[Action.CELLULAR],
        slots_wifi=counts[Action.WIFI],
        slots_waiting=counts[Action.IDLE],
        penalty_paid=pen,
        trajectory=tuple(path[: sum(counts)]),
    )


@dataclass(frozen=True)
class AggregateMetrics:
    """One point and scheme's totals, in the order of their CSV columns."""

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
                yield (repr(value), scheme, *map(repr, dataclasses.astuple(m)))

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


def _run_block(points: tuple, schemes: tuple, run_indices) -> np.ndarray:
    """Walk runs ``run_indices`` at every sweep point in ``points``.  Returns
    shape (points, schemes, runs, 6): per episode its total cost, payment,
    completion (1.0 or 0.0) and cellular, Wi-Fi and waiting slots, the
    columns ``SchemeSamples`` reads.

    Points that differ only in their deadline form a group, which samples
    and plans each run once, at its longest horizon, and is walked from the
    longest horizon down, each point with one spec (``problem_spec``) for
    all its runs.  A plan that takes one action per location
    (``Decisions.actions``) whose walk finished within a point's T slots is
    not walked again there: its walk over T slots is the first T slots of
    the longer one, and it pays the same amounts and no penalty."""
    groups = {}  # a point with the first point's deadline -> its group, longest first
    for p in sorted(range(len(points)), key=lambda p: points[p].horizon, reverse=True):
        same = dataclasses.replace(points[p], deadline_minutes=points[0].deadline_minutes)
        groups.setdefault(same, []).append(p)
    out = np.empty((len(points), len(schemes), len(run_indices), 6))
    for order in groups.values():
        top = points[order[0]]
        specs = [problem_spec(points[p]) for p in order]
        for r, (model, spec, traj) in enumerate(sample_runs(top, run_indices)):
            plans = plan_run(schemes, model, spec, top, traj)
            finished = [None] * len(plans)  # per scheme, a finished walk that carries over
            rows = []
            for spec_p in specs:
                point = []
                for s, x in enumerate(plans):
                    ep = finished[s]
                    if ep is None or len(ep.trajectory) > spec_p.horizon:
                        # spec by keyword: perfbench/tracer.py reads it as kwargs["spec"]
                        ep = run_episode(x, spec=spec_p)
                        if ep.completed and x.actions is not None:
                            finished[s] = ep
                    point.append(ep[:6])
                rows.append(point)
            out[order, :, r] = rows
            del plans  # the next run's planners then allocate without this run's tables
    return out


def _ignore_rounding():
    """Pool initializer: a sweep worker ignores the rounding warning.
    ``check_plannable`` gave it once in the caller; a worker started by
    ``spawn`` or ``forkserver`` does not inherit the caller's warnings
    registry, and would print it again, unformatted, for its own specs."""
    warnings.simplefilter("ignore", GridRoundingWarning)


def available_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count (None if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def worker_count(jobs: int, runs: int, cpus) -> int:
    """Processes to split ``runs`` episodes over when ``jobs`` are asked
    for: at most one per run and one per CPU (``cpus`` None counts as 1)."""
    return min(check_number(jobs, "jobs", 1, integer=True, error=ConfigError), runs, cpus or 1)


def check_sweep(cfg: ScenarioConfig, schemes, sweep_axis=None, sweep_values=None, jobs=1):
    """``(schemes, axis, values, points)`` of a sweep (``resolve_sweep``) once
    the schemes, the sweep, ``jobs`` and ``check_plannable`` pass; nothing
    is sampled, so ``simulate`` calls it before making its directory."""
    axis, values, points = cfg.resolve_sweep(sweep_axis, sweep_values)
    schemes = check_names(schemes, "scheme", SCHEMES)
    worker_count(jobs, cfg.runs, None)
    records = len(points) * len(schemes) * cfg.runs  # episode records, each 48 bytes
    check_number(records, "sweep points x schemes x runs", 1, MAX_SWEEP_RECORDS, error=ConfigError)
    check_plannable(schemes, points)
    return schemes, axis, values, points


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
    (see ``worker_count``); output is identical regardless of the split.
    Every input is checked (``check_sweep``) before any run is sampled."""
    schemes, axis, values, points = check_sweep(cfg, schemes, sweep_axis, sweep_values, jobs)
    workers = worker_count(jobs, cfg.runs, available_cpus())
    if workers == 1:
        records = _run_block(points, schemes, range(cfg.runs))
    else:
        from multiprocessing import Pool  # imported here: a serial run never needs it

        # worker w walks every w-th run; each block is placed as it arrives
        records = np.empty((len(points), len(schemes), cfg.runs, 6))
        slices = [range(w, cfg.runs, workers) for w in range(workers)]
        with Pool(processes=workers, initializer=_ignore_rounding) as pool:
            walk = functools.partial(_run_block, points, schemes)
            for w, block in enumerate(pool.imap(walk, slices)):
                records[:, :, w::workers] = block

    metrics = {}
    samples = {}
    for p, value in enumerate(values):
        for s, scheme in enumerate(schemes):
            ss = SchemeSamples(*records[p, s].T)  # column views of a (runs, 6) block
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
