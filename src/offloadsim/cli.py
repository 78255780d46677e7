"""Command-line front end.

Subcommands:

* ``solve``       plan one sampled scenario and dump the decision/cost tables
* ``simulate``    sweep a parameter and emit per-scheme metrics (CSV + JSON)
* ``policy-map``  dump one location's decision matrix (epochs x sizes)
* ``verify``      run structural checks on a solved scenario

Exit codes: 0 success, 2 configuration or validation error, 3 at least
one verification property failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dp
from .config import PROPERTY_NAMES, SWEEP_AXES, ScenarioConfig, parse_config, serialize_config
from .errors import OffloadError
from .model import Action
from .sim import SCHEMES, frontier_rows, means_model, run_experiment, sample_instance
from .threshold import solve_monotone

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPERTY = 3


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = ScenarioConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _instance_for(cfg: ScenarioConfig):
    # Same substream as the experiment's first run, so `solve` shows the
    # environment the first simulated episode runs in.
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)))
    return sample_instance(cfg, rng)


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    model, spec = _instance_for(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.solver == "general":
        policy, vt = dp.solve(model, spec)
        policy.write_csv(outdir / "policy.csv")
        vt.write_csv(outdir / "value.csv")
        written = ["policy.csv", "value.csv"]
    else:
        mm = means_model(cfg, model, spec)
        tp, vt = solve_monotone(mm, spec)
        tp.write_csv(outdir / "thresholds.csv")
        vt.write_csv(outdir / "value.csv")
        written = ["thresholds.csv", "value.csv"]

    meta = {
        "solver": args.solver,
        "config": cfg.to_dict(),
        "instance": {
            "wifi_locations": sorted(model.wifi_locations),
            "initial_location": spec.initial_location,
            "horizon": spec.horizon,
            "grid_points": spec.grid_points,
        },
        "files": written,
    }
    with open(outdir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {', '.join(written)} and meta.json to {outdir}")
    return EXIT_OK


def _parse_sweep(arg: str):
    if arg is None:
        return None, None
    axis, _, rest = arg.partition("=")
    axis = axis.strip()
    if axis not in SWEEP_AXES:
        raise OffloadError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = None
    if rest.strip():
        values = tuple(float(v) for v in rest.split(",") if v.strip())
    return axis, values


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    axis, values = _parse_sweep(args.sweep)
    result = run_experiment(cfg, schemes, sweep_axis=axis, sweep_values=values, jobs=args.jobs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv") if out.suffix != ".csv" else out
    json_path = csv_path.with_suffix(".json")
    result.write_csv(csv_path)
    result.write_json(json_path)
    print(
        f"swept {result.sweep_axis} over {list(result.sweep_values)} with "
        f"{len(schemes)} scheme(s), {cfg.runs} run(s) each; wrote {csv_path} and {json_path}"
    )
    return EXIT_OK


def cmd_policy_map(args) -> int:
    cfg = _load_config(args)
    model, spec = _instance_for(cfg)
    l = args.location
    model.check_location(l)

    if args.solver == "general":
        policy, _ = dp.solve(model, spec, values=False)
        matrix = policy.actions[:, l - 1, :]
    else:
        # threshold.decide on every cell, from the data the walk reads:
        # cellular at or above the frontier, else the location's action
        # below it, and idle when nothing is left
        rows = frontier_rows(solve_monotone(means_model(cfg, model, spec), spec, values=False)[0])
        frontier = np.array(rows.frontier[l - 1])[:, None]
        sizes = np.arange(spec.grid_points + 1)
        matrix = np.where(sizes >= frontier, Action.CELLULAR, rows.below[l - 1]).astype(np.int8)
        matrix[:, 0] = Action.IDLE

    lines = [",".join(str(int(a)) for a in row) for row in matrix]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"wrote {matrix.shape[0]}x{matrix.shape[1]} action matrix for "
            f"location {l} to {args.out}"
        )
    return EXIT_OK


def run_verification(cfg: ScenarioConfig, properties) -> list:
    """``properties.run_verification``, imported on first use: only
    ``verify`` needs the checks."""
    from . import properties as checks

    return checks.run_verification(cfg, properties)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    props = None
    if args.properties:
        props = tuple(p.strip() for p in args.properties.split(",") if p.strip())
    results = run_verification(cfg, props)
    failed = False
    for r in results:
        if r.status == "pass":
            print(f"PASS {r.name}")
        elif r.status == "skip":
            print(f"SKIP {r.name}: {r.detail}")
        else:
            failed = True
            print(f"FAIL {r.name}: {r.detail}")
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_dump_config(args) -> int:
    cfg = _load_config(args)
    sys.stdout.write(serialize_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offloadsim",
        description=(
            "Plan and simulate deadline-aware Wi-Fi/cellular network selection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario file (key = value lines); omit for defaults")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("solve", help="plan one sampled scenario and dump tables")
    common(p)
    p.add_argument("--solver", choices=("general", "monotone"), default="general")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a parameter sweep experiment")
    common(p)
    p.add_argument(
        "--schemes",
        default=",".join(SCHEMES),
        help=f"comma-separated subset of {','.join(SCHEMES)}",
    )
    p.add_argument(
        "--sweep",
        default=None,
        help="axis or axis=v1,v2,... (axes: " + ", ".join(SWEEP_AXES) + ")",
    )
    p.add_argument("--out", required=True, help="output path; .csv and .json are written")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for episodes (>= 1; capped at the CPUs this process may use)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("policy-map", help="dump one location's decision matrix")
    common(p)
    p.add_argument("--solver", choices=("general", "monotone"), default="general")
    p.add_argument("--location", type=int, required=True)
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.set_defaults(func=cmd_policy_map)

    p = sub.add_parser("verify", help="run structural checks on a solved scenario")
    common(p)
    p.add_argument(
        "--properties",
        default=None,
        help="comma-separated subset of " + ",".join(PROPERTY_NAMES),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-config", help="print the fully-defaulted scenario")
    common(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OffloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
