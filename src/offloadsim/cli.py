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
import warnings
from pathlib import Path

from .config import (
    PROPERTY_NAMES,
    SWEEP_AXES,
    ScenarioConfig,
    parse_config,
    serialize_config,
    split_list,
)
from .errors import ConfigError, GridRoundingWarning, OffloadError
from .sim import SCHEMES, SOLVERS, check_plannable, check_sweep, plan, run_experiment, sample_runs

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


def _out_dir(path: Path) -> Path:
    """Create directory ``path`` and its parents, after the checks that need
    no sampling and before any planning: a rejected command makes nothing."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OffloadError(f"cannot create output directory {str(path)!r}: {exc}") from exc
    return path


def _save(path, write) -> None:
    """``write(path)``, with an output file that cannot be opened or written
    reported as an :class:`OffloadError` (exit 2), not a traceback."""
    try:
        write(path)
    except OSError as exc:
        raise OffloadError(f"cannot write {str(path)!r}: {exc}") from exc


def _text_writer(text: str):
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    check_plannable((args.solver,), (cfg,))
    outdir = _out_dir(Path(args.out))
    model, spec, _ = next(sample_runs(cfg, (0,)))  # run 0 of simulate
    table, vt = plan(args.solver, cfg, model, spec, values=True)
    written = ["policy.csv" if args.solver == "general" else "thresholds.csv", "value.csv"]
    _save(outdir / written[0], table.write_csv)
    _save(outdir / "value.csv", vt.write_csv)

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
    _save(outdir / "meta.json", _text_writer(json.dumps(meta, indent=2, sort_keys=True) + "\n"))
    print(f"wrote {', '.join(written)} and meta.json to {outdir}")
    return EXIT_OK


def _parse_sweep(arg: str):
    if arg is None:
        return None, None
    axis, eq, rest = arg.partition("=")
    values = []
    for v in split_list(rest):
        try:
            values.append(float(v))
        except ValueError:
            raise ConfigError(f"sweep value {v!r} is not a number") from None
    if eq and not values:  # "axis" alone leaves the values to resolve_sweep, "axis=" none
        raise ConfigError(f"no sweep value given after {arg!r}")
    return axis.strip(), tuple(values) or None


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    schemes, axis, values, _ = check_sweep(cfg, args.schemes, *_parse_sweep(args.sweep), args.jobs)
    out = Path(args.out)
    _out_dir(out.parent)
    result = run_experiment(cfg, schemes, sweep_axis=axis, sweep_values=values, jobs=args.jobs)
    base = str(out.with_suffix("") if out.suffix in (".csv", ".json") else out)  # run.1 stays run.1
    csv_path, json_path = Path(base + ".csv"), Path(base + ".json")
    _save(csv_path, result.write_csv)
    _save(json_path, result.write_json)
    print(
        f"swept {result.sweep_axis} over {list(result.sweep_values)} with "
        f"{len(result.schemes)} scheme(s), {cfg.runs} run(s) each; wrote {csv_path} and {json_path}"
    )
    return EXIT_OK


def cmd_policy_map(args) -> int:
    cfg = _load_config(args)
    check_plannable((args.solver,), (cfg,))
    model, spec, _ = next(sample_runs(cfg, (0,)))
    l = args.location
    model.check_location(l)
    if args.out != "-":
        _out_dir(Path(args.out).parent)

    table, _ = plan(args.solver, cfg, model, spec)
    if args.solver == "monotone":  # the frontier rule written out as the exact planner's table
        table = table.to_policy()
    matrix = table.actions[:, l - 1, :]

    lines = [",".join(str(int(a)) for a in row) for row in matrix]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _save(args.out, _text_writer(text))
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
    results = run_verification(cfg, args.properties)
    for r in results:
        print(f"{r.status.upper()} {r.name}" + (f": {r.detail}" if r.detail else ""))
    return EXIT_PROPERTY if any(r.status == "fail" for r in results) else EXIT_OK


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
    p.add_argument("--solver", choices=SOLVERS, default="general")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a parameter sweep experiment")
    common(p)
    p.add_argument(
        "--schemes",
        type=split_list,
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
    p.add_argument("--solver", choices=SOLVERS, default="general")
    p.add_argument("--location", type=int, required=True)
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.set_defaults(func=cmd_policy_map)

    p = sub.add_parser("verify", help="run structural checks on a solved scenario")
    common(p)
    p.add_argument(
        "--properties",
        type=split_list,
        default=None,
        help="comma-separated subset of " + ",".join(PROPERTY_NAMES),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-config", help="print the fully-defaulted scenario")
    common(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one ``warning:`` line, without a source location;
    a rounded file size names the scenario keys that set it."""
    if issubclass(category, GridRoundingWarning):
        message = f"{message}: the size in Mbit is 8 x file_mbytes, on a grid of grid_step_mbit"
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except OffloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
