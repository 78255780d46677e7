"""Self-test of the benchmark: every workload at a tiny run count.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and ``run.py`` agree on workloads, metric names
and units; that each workload records why it was chosen; that every metric
appears with its unit for every workload, with ``calls = 0`` for layers a
workload never reaches; that the work counts repeat between traced runs;
and one hand-checkable exact-planner cell count.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run
import tracer

# Layers each workload must reach (calls > 0); all others must report 0.
PLANNERS = {
    "stringent-deadline": {"dp.solve", "threshold.solve_monotone"},
    "small-file-relaxed": {"dp.solve", "threshold.solve_monotone"},
    "frontier-long-horizon": {"threshold.solve_monotone"},
    "heuristics-only": set(),
}
TINY_RUNS = 2


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_manifest() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOADS), f"BENCHMARK.json workloads {names} != run.py's")
    for w in spec["workloads"]:
        why = w.get("why", "")
        check(bool(why.strip()) and "\n" not in why and len(why) <= 200,
              f"{w['name']}: 'why' must be one line of 1-200 characters")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
          "end_to_end names/units differ from run.E2E_UNITS")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS,
          "per_layer names/units differ from run.LAYER_UNITS")
    return spec


def check_action_cells() -> None:
    """dp.action_cells = T*(N+1)*(2L + |W|) on a small known instance."""
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from offloadsim import NetworkModel, ProblemSpec, QuadraticPenalty, dp

    L, W, T, step, size = 3, frozenset({2}), 4, 10.0, 50.0
    rate = np.zeros((L, 3))
    rate[:, 1] = 20.0
    rate[1, 2] = 30.0
    price = np.zeros((L, 3))
    price[:, 1] = 0.01
    model = NetworkModel(L, W, np.full((L, L), 1.0 / L), price, rate)
    spec = ProblemSpec(size, T, step, QuadraticPenalty(1.0), initial_location=1)
    t = tracer.Tracer()
    t.wrap("dp.solve", dp.solve, tracer._dp_attrs)(model, spec)
    got = tracer.summarize(t.rows())["dp.solve"]["counts"]["action_cells"]
    N = spec.grid_points
    check(got == T * (N + 1) * (2 * L + len(W)) == 168, f"action_cells {got} != 168")


def check_workload(name: str) -> None:
    for trace, units in ((0, run.E2E_UNITS), (1, run.LAYER_UNITS)):
        rec = run.run_workload(name, run.DEFAULT_SEED, 0.0, trace, runs=TINY_RUNS)
        check(rec["correct"] and rec["failed"] == 0, f"{name} trace={trace}: {rec['failures']}")
        metrics = rec["metrics"]
        check(set(metrics) == set(units), f"{name}: metric keys {sorted(metrics)}")
        for k, m in metrics.items():
            check(m["unit"] == units[k] and isinstance(m["value"], (int, float)),
                  f"{name}: {k} = {m}")
        if trace:
            for layer in ("dp.solve", "threshold.solve_monotone"):
                calls = metrics[f"{layer}.calls"]["value"]
                reached = layer in PLANNERS[name]
                check(calls > 0 if reached else calls == 0, f"{name}: {layer}.calls = {calls}")
            check(metrics["sim.run_episode.calls"]["value"] > 0, f"{name}: no episodes walked")
        else:
            check(all(m["value"] > 0 for m in metrics.values()), f"{name}: a zero metric")
        run.report(rec, f"{name}: ")


def main() -> int:
    try:
        check_manifest()
        check_action_cells()
        for name in run.WORKLOADS:
            check_workload(name)
    except AssertionError as exc:
        print(f"SELFTEST FAIL: {exc}", file=sys.stderr)
        return 1
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
