"""Traced ``offloadsim`` run: the CLI in-process with spans around its layers.

Usage::

    python3 perfbench/tracer.py SPANS_JSON simulate --config ... --out ...

The arguments after the spans path go to ``offloadsim.cli.main`` unchanged,
so the traced run takes the same code path and writes the same CSV and
JSON as ``offloadsim simulate``.  Before the call, the public functions that
``simulate`` reaches are replaced, in the namespace each caller resolves
them from, by wrappers that record a span: name, start, end, parent span
and a few work counts taken from the arguments and the result.  Spans stay
in memory and are written once, when the run ends.  Nothing under ``src/``
is modified.

``summarize`` turns one span file into per-layer calls, inclusive time,
self time (the span minus its wrapped children) and summed counts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``attrs(args, kwargs, result)`` computes the span's counts after
        the span has ended, so counting does not inflate the layer's time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def rows(self) -> list:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "attrs": a or {}}
            for i, (n, s, e, p, a) in enumerate(self.spans)
        ]

    def write(self, path, unwrapped=()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            doc = {"clock": "time.perf_counter", "unwrapped": list(unwrapped), "spans": self.rows()}
            json.dump(doc, fh)


def action_cells(model, spec) -> int:
    """Action values the exact planner evaluates: sum of T*(N+1)*|A(l)|."""
    from offloadsim.model import admissible_actions

    per_epoch = sum(
        len(admissible_actions(model, l)) for l in range(1, model.num_locations + 1)
    )
    return spec.horizon * (spec.grid_points + 1) * per_epoch


def band_cells(k_star_idx, grid_points: int) -> int:
    """Cells at or above the next epoch's frontier, over locations and epochs.

    This is the region Theorem 3 leaves to search.  The last epoch has no
    successor, so its whole column is counted (the planner starts from 0).
    """
    L, T = k_star_idx.shape
    width = grid_points + 1
    total = L * width  # last epoch: next frontier is 0
    for t in range(T - 1):
        total += int((width - k_star_idx[:, t + 1]).sum())
    return total


def _dp_attrs(args, kwargs, result):
    return {"action_cells": action_cells(args[0], args[1])}


def _frontier_attrs(args, kwargs, result):
    mm, spec = args[0], args[1]
    key = hashlib.sha256(
        repr(
            (
                sorted(mm.wifi_locations),
                spec.horizon,
                spec.file_size,
                spec.grid_step,
                mm.mu_cellular,
                mm.mu_wifi,
                mm.cellular_cost,
                repr(mm.penalty),
            )
        ).encode()
        + mm.mobility.tobytes()
    ).hexdigest()[:16]
    return {
        "lattice_cells": spec.horizon * mm.num_locations * (spec.grid_points + 1),
        "band_cells": band_cells(result[0].k_star_idx, spec.grid_points),
        "input_key": key,
    }


def _episode_attrs(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"slots": len(result.trajectory), "horizon_slots": spec.horizon}


def _output_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def install(tracer: Tracer) -> list:
    """Wrap every layer ``simulate`` reaches, where its caller looks it up.

    Returns the targets the program no longer has; their layers then report
    no calls instead of failing the run.
    """
    from offloadsim import cli, dp, model, sim, threshold

    targets = [
        (cli, "run_experiment", "sim.run_experiment", None),
        (sim, "sample_instance", "sim.sample_instance", None),
        (sim, "sample_trajectory", "sim.sample_trajectory", None),
        (sim, "run_episode", "sim.run_episode", _episode_attrs),
        (sim, "aggregate_metrics", "sim.aggregate_metrics", None),
        (dp, "solve", "dp.solve", _dp_attrs),  # sim calls it as dp.solve
        (sim, "solve_monotone", "threshold.solve_monotone", _frontier_attrs),
        (sim.ExperimentResult, "write_csv", "sim.output", _output_attrs),
        (sim.ExperimentResult, "write_json", "sim.output", _output_attrs),
        # dp.solve and solve_monotone look the penalty up in their own
        # modules; is_convex_on_grid (inside solve_monotone) in model.
        (dp, "penalty_on_grid", "model.penalty_on_grid", None),
        (threshold, "penalty_on_grid", "model.penalty_on_grid", None),
        (model, "penalty_on_grid", "model.penalty_on_grid", None),
    ]
    missing = []
    for ns, attr, name, attrs in targets:
        if hasattr(ns, attr):
            setattr(ns, attr, tracer.wrap(name, getattr(ns, attr), attrs))
        else:
            missing.append(f"{ns.__name__}.{attr}")
    return missing


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts and
    the list of planner input keys (for the repeat share)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        layer = out.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}, "keys": []}
        )
        d = s["end"] - s["start"]
        layer["calls"] += 1
        layer["total_s"] += d
        layer["self_s"] += d - child[s["id"]]
        for k, v in s["attrs"].items():
            if k == "input_key":
                layer["keys"].append(v)
            else:
                layer["counts"][k] = layer["counts"].get(k, 0) + v
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    unwrapped = install(tracer)
    from offloadsim import cli

    code = cli.main(cli_args)
    tracer.write(spans_path, unwrapped)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
