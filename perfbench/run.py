"""offloadsim benchmark: ``offloadsim simulate`` end to end on four sweeps.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stringent-deadline --seed 1 \
        --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/selftest.py                # tiny run of everything

The benchmark writes one scenario file per workload from ``--seed`` and
passes the program only that file plus CLI flags.  The program is run from
the checkout's ``src/`` as ``python3 -m offloadsim.cli``; nothing is
installed.  Invocations form a closed loop of one caller: one process,
``--jobs 1``, each started after the previous one exits, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, each a median over the run's
invocations: ``sweep_s`` (one simulate process, start to exit),
``episodes_per_s`` (points x runs x schemes / sweep_s), ``setup_s`` (one
``dump-config`` process on the same file: every import simulate makes plus
config parsing, no simulation; seven per run, interleaved with the sweeps)
and ``peak_rss_mb`` (the simulate child's
peak resident memory from ``wait4``).

``--trace 1`` alternates untraced simulate invocations with traced ones
(``perfbench/tracer.py``: the same CLI in-process with spans around each
layer) and reports per-layer calls, self time and work counts.

Times are wall clock scaled to a reference machine speed.  On a shared
2-vCPU host each CPU's speed moved by up to 1.5x, on its own, in phases of
seconds to minutes, and the median wall time of a 20 s run spread 17-29%
(interquartile range over median) across ten runs.  The
benchmark therefore pins itself and the program to one CPU, times a fixed
probe (``probe_speed``, independent of the program) on it before and after
every invocation, and reports ``wall * CALIB_REF_S / mean(probe)``.  The raw
wall times are kept in the result record.

Every invocation is checked: exit code, a timeout, the CSV invariants, the
JSON mirror, identical bytes across invocations, traced bytes equal to
untraced bytes, counts that repeat exactly across traced runs, and at the
default seed the SHA-256 digests recorded in ``perfbench/digests.json``.
Failed / attempted invocations is the error rate; any failure makes the
command exit with 1.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts
(scenario, outputs, spans, a full result record with the environment) go
to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 12345
SETUP_REPEATS = 7  # dump-config processes per run; setup_s is their median
TIMEOUT_S = 60.0  # per invocation; a hang counts as a failure
# Machine-speed probe: fixed work, independent of the program, timed on the
# benchmark's CPU right before and after every invocation.  Reported times
# are scaled to a CPU on which the probe takes CALIB_REF_S (an undisturbed
# 2.1 GHz core).
CALIB_REPEATS = 4
CALIB_REF_S = 0.015
SLOT_SECONDS = 10.0  # scenario default; horizon = 60 * deadline / slot

ALL_SCHEMES = ("general", "monotone", "no-offload", "otso", "wiffler")


@dataclass(frozen=True)
class Workload:
    file_mbytes: float
    deadlines: tuple
    schemes: tuple
    runs: int  # episodes per sweep point: sized for ~2 s per invocation

    def horizon(self, deadline: float) -> int:
        return int(round(60.0 * deadline / SLOT_SECONDS))


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS = {
    "stringent-deadline": Workload(750.0, (2.0, 3.0, 4.0, 5.0), ALL_SCHEMES, 30),
    "small-file-relaxed": Workload(
        92.5, (3.0, 4.0, 5.0), ("general", "monotone", "no-offload", "otso"), 80
    ),
    "frontier-long-horizon": Workload(
        750.0, (6.0, 8.0, 10.0), ("monotone", "no-offload", "otso", "wiffler"), 80
    ),
    "heuristics-only": Workload(
        750.0, (2.0, 3.0, 4.0, 5.0), ("no-offload", "otso", "wiffler"), 500
    ),
}

E2E_UNITS = {
    "sweep_s": "s",
    "episodes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "dp.solve.calls": "count",
    "dp.solve.self_s": "s",
    "dp.solve.action_cells": "count",
    "dp.solve.ns_per_action_cell": "ns",
    "threshold.solve_monotone.calls": "count",
    "threshold.solve_monotone.self_s": "s",
    "threshold.solve_monotone.lattice_cells": "count",
    "threshold.solve_monotone.band_cells": "count",
    "threshold.solve_monotone.ns_per_lattice_cell": "ns",
    "threshold.solve_monotone.repeat_share": "ratio",
    "model.penalty_on_grid.calls": "count",
    "model.penalty_on_grid.self_s": "s",
    "sim.sample_instance.calls": "count",
    "sim.sample_instance.self_s": "s",
    "sim.sample_trajectory.calls": "count",
    "sim.sample_trajectory.self_s": "s",
    "sim.run_episode.calls": "count",
    "sim.run_episode.self_s": "s",
    "sim.run_episode.slots": "count",
    "sim.run_episode.slot_use": "ratio",
    "sim.run_episode.ns_per_slot": "ns",
    "sim.aggregate_metrics.calls": "count",
    "sim.aggregate_metrics.self_s": "s",
    "sim.output.self_s": "s",
    "sim.output.bytes": "bytes",
    "sim.run_experiment.self_s": "s",
    "planners.cell_ratio": "ratio",
    "planners.time_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}

CSV_COLUMNS = (
    "sweep_value,scheme,runs,completion_prob,completion_ci,mean_cost,cost_ci,"
    "mean_payment,payment_ci,slots_cellular,slots_wifi,slots_waiting"
)


class CheckFailed(Exception):
    """An invocation ran but its output broke an invariant."""


@dataclass
class Invocation:
    wall_s: float
    scaled_s: float  # wall_s at the reference machine speed
    maxrss_kb: int
    returncode: int  # -9 after a timeout kill
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path: Path) -> Invocation:
    """Run one child to exit; wall clock from spawn to reap, rusage of it."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    timed_out = proc.returncode == -9 and wall >= TIMEOUT_S
    return Invocation(wall, wall, usage.ru_maxrss, proc.returncode, timed_out)


def _probe_work(np, P, V, idx) -> None:
    # Shared-host slowdowns hit interpreter loops, dict and call-heavy code
    # and small numpy kernels by different factors, and the program mixes
    # all three, so the probe does too.
    acc = 0
    for i in range(105_000):
        acc += i * i % 7
    d = {}
    for i in range(30_000):
        d[i & 255] = d.get(i & 255, 0) + 1
    for _ in range(120):
        W = P @ V
        np.minimum(W[:, idx] + 1.0, W, out=W)


def probe_speed() -> float:
    """Mean seconds of the fixed probe work on this CPU, now."""
    import numpy as np

    P = np.full((16, 16), 1.0 / 16)
    V = np.linspace(0.0, 1.0, 16 * 601).reshape(16, 601)
    idx = np.maximum(np.arange(601) - 7, 0)
    times = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        _probe_work(np, P, V, idx)
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario_text(w: Workload, runs: int, seed: int) -> str:
    # Same "key = repr(value)" form dump-config prints, so setup can check
    # that the program parsed the file.
    return f"file_mbytes = {w.file_mbytes!r}\nruns = {runs!r}\nseed = {seed!r}\n"


def simulate_args(w: Workload, cfg: Path, out: Path) -> list:
    sweep = "deadline=" + ",".join(repr(d) for d in w.deadlines)
    return [
        "simulate", "--config", str(cfg), "--schemes", ",".join(w.schemes),
        "--sweep", sweep, "--out", str(out), "--jobs", "1",
    ]


def check_outputs(w: Workload, runs: int, csv_path: Path, json_path: Path) -> None:
    """The CSV invariants, and the JSON mirror holding the same rows."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_COLUMNS:
        raise CheckFailed(f"CSV header is {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    expect = [(repr(d), s) for d in w.deadlines for s in w.schemes]
    if [(r[0], r[1]) for r in rows] != expect:
        raise CheckFailed(f"CSV has {len(rows)} rows, not the {len(expect)} (point, scheme) pairs")
    cols = CSV_COLUMNS.split(",")
    for row in rows:
        rec = dict(zip(cols, row))
        if len(row) != len(cols) or rec["runs"] != str(runs):
            raise CheckFailed(f"bad row {row!r}")
        vals = {k: float(v) for k, v in rec.items() if k != "scheme"}
        if not all(math.isfinite(v) for v in vals.values()):
            raise CheckFailed(f"non-finite value in {row!r}")
        if not 0.0 <= vals["completion_prob"] <= 1.0:
            raise CheckFailed(f"completion outside [0, 1] in {row!r}")
        if vals["mean_cost"] < vals["mean_payment"]:
            raise CheckFailed(f"mean_cost < mean_payment in {row!r}")
        T = w.horizon(vals["sweep_value"])
        slots = vals["slots_cellular"] + vals["slots_wifi"] + vals["slots_waiting"]
        if slots > T * (1.0 + 1e-12):
            raise CheckFailed(f"slot means sum to {slots!r} > T={T} in {row!r}")
    mirror = json.loads(json_path.read_text(encoding="utf-8"))
    if [[r[c] for c in cols] for r in mirror["rows"]] != rows:
        raise CheckFailed("JSON rows differ from the CSV")
    if mirror["config"]["runs"] != runs:
        raise CheckFailed("JSON config has another run count")


def environment(seed: int, program: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": program["numpy"],
        "numba_imports": program["numba_imports"],
        "frontier_path": program["frontier_path"],
        "cpu_count": os.cpu_count(),
        "git_commit": None,
        "git_dirty": None,
        "seed": seed,
        "loadavg_start": read_loadavg(),
    }
    if (ROOT / ".git").exists():  # never let git search above the checkout
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


INSPECT = """
import json, numpy, offloadsim, offloadsim.threshold as threshold
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
print(json.dumps({
    "file": offloadsim.__file__,
    "numpy": numpy.__version__,
    "numba_imports": numba_imports,
    "frontier_path": "numba" if getattr(threshold, "_HAVE_NUMBA", False) else "numpy",
}))
"""


def inspect_program(work: Path) -> dict:
    """Import the program once (this also compiles its bytecode), check that
    it resolves from this checkout's ``src/`` and report its versions."""
    log = work / "inspect.log"
    inv = spawn([sys.executable, "-c", INSPECT], log)
    if inv.returncode != 0:
        raise SystemExit(f"cannot import offloadsim from {SRC}:\n{log.read_text()}")
    info = json.loads(log.read_text().strip().splitlines()[-1])
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"offloadsim resolved to {info['file']}, not under {SRC}")
    return info


class Run:
    """One benchmark run of one workload: invocations, checks, failures."""

    def __init__(self, name: str, seed: int, runs: int, trace: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.runs = runs
        self.work = WORK / f"{name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg = self.work / "scenario.cfg"
        self.cfg.write_text(scenario_text(self.w, runs, seed), encoding="utf-8")
        self.attempted = 0
        self.failures = []
        self.speed = None  # last probe_speed() reading
        self.speeds = []
        self.digests = None  # (csv, json) of the first successful sweep
        self.program = inspect_program(self.work)
        self.env = environment(seed, self.program)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {self.name}: {what}", file=sys.stderr)

    def invoke(self, argv, tag: str):
        self.attempted += 1
        log = self.work / f"{tag}.log"
        before = self.speed or probe_speed()
        inv = spawn([sys.executable] + argv, log)
        self.speed = probe_speed()
        self.speeds.append(self.speed)
        inv.scaled_s = inv.wall_s * CALIB_REF_S / ((before + self.speed) / 2)
        if inv.timed_out:
            self.fail(f"{tag}: timed out after {TIMEOUT_S:.0f} s")
            return None
        if inv.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            self.fail(f"{tag}: exit code {inv.returncode}\n{tail}")
            return None
        return inv

    def setup(self):
        """One dump-config on the workload file: import plus parse, no
        simulation.  Returns the invocation, or None when it failed."""
        argv = ["-m", "offloadsim.cli", "dump-config", "--config", str(self.cfg)]
        inv = self.invoke(argv, "setup")
        if inv is None:
            return None
        printed = (self.work / "setup.log").read_text().splitlines()
        missing = set(self.cfg.read_text().splitlines()) - set(printed)
        if missing:
            self.fail(f"dump-config did not echo {sorted(missing)}")
            return None
        return inv

    def sweep(self, traced: bool, tag: str):
        """One simulate process (traced: the tracer running the same CLI).
        Returns (invocation, spans path) or None when it failed."""
        out = self.work / tag
        spans = self.work / f"{tag}.spans.json"
        argv = simulate_args(self.w, self.cfg, out)
        if traced:
            argv = [str(HERE / "tracer.py"), str(spans)] + argv
        else:
            argv = ["-m", "offloadsim.cli"] + argv
        inv = self.invoke(argv, tag)
        if inv is None:
            return None
        csv_path, json_path = out.with_suffix(".csv"), out.with_suffix(".json")
        try:
            check_outputs(self.w, self.runs, csv_path, json_path)
        except (CheckFailed, ValueError, KeyError) as exc:
            self.fail(f"{tag}: {exc}")
            return None
        digests = (sha256(csv_path), sha256(json_path))
        if self.digests is None:
            self.digests = digests
            self.check_recorded(digests)
        elif digests != self.digests:
            which = "traced output differs from untraced" if traced else "output changed between invocations"
            self.fail(f"{tag}: {which}")
            return None
        return inv, spans

    def check_recorded(self, digests) -> None:
        if self.seed != DEFAULT_SEED or self.runs != self.w.runs:
            return
        rec = json.loads((HERE / "digests.json").read_text())["workloads"].get(self.name)
        if rec is None or rec["runs"] != self.runs or (rec["csv_sha256"], rec["json_sha256"]) != digests:
            self.fail(f"default-seed digests {digests} differ from digests.json {rec}")

    def result(self, metrics: dict, extra: dict) -> dict:
        self.env["loadavg_end"] = read_loadavg()
        record = {
            "workload": self.name,
            "environment": self.env,
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(1, self.attempted),
            "failures": self.failures,
            "speed_probe_s": self.speeds,
            "output_sha256": self.digests,
            "metrics": metrics,
            **extra,
        }
        with open(self.work / "result.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        return record


def median(xs):
    return statistics.median(xs) if xs else 0.0


def fits(start: float, seconds: float, next_s: float) -> bool:
    """Whether one more step of about ``next_s`` ends within the budget."""
    return time.perf_counter() - start + next_s <= seconds


def end_to_end(r: Run, seconds: float) -> dict:
    setup, sweeps = [], []
    work = r.runs * len(r.w.deadlines) * len(r.w.schemes)

    def add_setup():
        inv = r.setup()
        if inv is not None:
            setup.append(inv)

    start = time.perf_counter()
    while not r.failures and (
        not sweeps or fits(start, seconds, median([i.wall_s for i in sweeps]))
    ):
        # One set-up before every other sweep, so that the set-up samples
        # span the run's speed phases as the sweeps do.
        if len(sweeps) % 2 == 0 and len(setup) < SETUP_REPEATS:
            add_setup()
        got = r.sweep(False, "sweep")
        if got is not None:
            sweeps.append(got[0])
    while not r.failures and len(setup) < SETUP_REPEATS:
        add_setup()
    values = {
        "sweep_s": median([i.scaled_s for i in sweeps]),
        "episodes_per_s": median([work / i.scaled_s for i in sweeps]),
        "setup_s": median([i.scaled_s for i in setup]),
        "peak_rss_mb": median([i.maxrss_kb / 1024.0 for i in sweeps]),
    }
    raw = {
        "sweep_s": median([i.wall_s for i in sweeps]),
        "setup_s": median([i.wall_s for i in setup]),
    }
    samples = {"setup": [asdict(i) for i in setup], "sweep": [asdict(i) for i in sweeps]}
    return r.result(tagged(values, E2E_UNITS), {"raw_wall_median": raw, "samples": samples})


def layer_counts(s: dict) -> dict:
    """Counts that must repeat exactly between traced runs."""
    frontier = s.get("threshold.solve_monotone", {"keys": []})
    return {
        name: [layer["calls"], layer["counts"].get("action_cells", 0),
               layer["counts"].get("lattice_cells", 0), layer["counts"].get("band_cells", 0),
               layer["counts"].get("slots", 0)]
        for name, layer in sorted(s.items())
    } | {"repeat_share": repeat_share(frontier["keys"])}


def repeat_share(keys) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def per_layer(r: Run, seconds: float) -> dict:
    untraced, traced, summaries, factors = [], [], [], []
    start = time.perf_counter()
    while not r.failures and (
        len(traced) < 2 or fits(start, seconds, (time.perf_counter() - start) / len(traced))
    ):
        got = r.sweep(False, "sweep")
        if got is None:
            break
        untraced.append(got[0].scaled_s)
        got = r.sweep(True, f"traced{len(traced) + 1}")
        if got is None:
            break
        traced.append(got[0].scaled_s)
        with open(got[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        summaries.append(tracer.summarize(doc["spans"]))
        factors.append(got[0].scaled_s / got[0].wall_s)
        r.env["unwrapped_layers"] = doc["unwrapped"]
    counts = [layer_counts(s) for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        r.fail("work counts differ between traced runs")
    values = layer_values(summaries, factors, untraced, traced) if summaries else {}
    values = {k: values.get(k, 0.0) for k in LAYER_UNITS}
    return r.result(
        tagged(values, LAYER_UNITS),
        {"samples": {"untraced_s": untraced, "traced_s": traced}, "counts": counts[:1]},
    )


def layer_values(summaries, factors, untraced, traced) -> dict:
    """Per-layer metrics for one sweep: times averaged over traced runs,
    each scaled by its invocation's speed factor; counts from the first
    run (they repeat exactly)."""
    n = len(summaries)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}, "keys": []}

    def layer(name, i=0):
        return summaries[i].get(name, empty)

    def self_s(name):
        return sum(layer(name, i)["self_s"] * factors[i] for i in range(n)) / n

    def total_s(name):
        return sum(layer(name, i)["total_s"] * factors[i] for i in range(n)) / n

    def per(ns_of, cells):
        return self_s(ns_of) * 1e9 / cells if cells else 0.0

    out = {}
    for name in (
        "dp.solve", "threshold.solve_monotone", "model.penalty_on_grid",
        "sim.sample_instance", "sim.sample_trajectory", "sim.run_episode",
        "sim.aggregate_metrics",
    ):
        out[f"{name}.calls"] = layer(name)["calls"]
        out[f"{name}.self_s"] = self_s(name)
    dp, fr, ep = layer("dp.solve"), layer("threshold.solve_monotone"), layer("sim.run_episode")
    action = dp["counts"].get("action_cells", 0)
    lattice = fr["counts"].get("lattice_cells", 0)
    band = fr["counts"].get("band_cells", 0)
    slots = ep["counts"].get("slots", 0)
    horizon_slots = ep["counts"].get("horizon_slots", 0)
    out |= {
        "dp.solve.action_cells": action,
        "dp.solve.ns_per_action_cell": per("dp.solve", action),
        "threshold.solve_monotone.lattice_cells": lattice,
        "threshold.solve_monotone.band_cells": band,
        "threshold.solve_monotone.ns_per_lattice_cell": per("threshold.solve_monotone", lattice),
        "threshold.solve_monotone.repeat_share": repeat_share(fr["keys"]),
        "sim.run_episode.slots": slots,
        "sim.run_episode.slot_use": slots / horizon_slots if horizon_slots else 0.0,
        "sim.run_episode.ns_per_slot": per("sim.run_episode", slots),
        "sim.output.self_s": self_s("sim.output"),
        "sim.output.bytes": layer("sim.output")["counts"].get("bytes", 0),
        "sim.run_experiment.self_s": self_s("sim.run_experiment"),
        "planners.cell_ratio": action / band if action and band else 0.0,
    }
    if dp["calls"] and fr["calls"]:
        dp_mean = total_s("dp.solve") / dp["calls"]
        fr_mean = total_s("threshold.solve_monotone") / fr["calls"]
        out["planners.time_ratio"] = dp_mean / fr_mean
    base = median(untraced)
    out["trace.overhead_frac"] = (median(traced) - base) / base if base else 0.0
    return out


def tagged(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run_workload(name: str, seed: int, seconds: float, trace: int, runs: int = None) -> dict:
    # The benchmark and its children share one CPU, so that the speed probe
    # measures the CPU the program runs on: on shared hosts each CPU's speed
    # moves on its own, by up to 1.5x, for seconds to minutes.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        r = Run(name, seed, runs or WORKLOADS[name].runs, trace)
        r.env["cpu_affinity"] = sorted(affinity)
        r.env["pinned_cpu"] = max(affinity)
        return per_layer(r, seconds) if trace else end_to_end(r, seconds)
    finally:
        os.sched_setaffinity(0, affinity)


def report(record: dict, prefix: str = "") -> None:
    print(f"{prefix}environment {json.dumps(record['environment'], sort_keys=True)}")
    for k, m in record["metrics"].items():
        print(f"{prefix}{k} = {m['value']:.6g} {m['unit']}")
    for k, v in record.get("raw_wall_median", {}).items():
        print(f"{prefix}{k} unscaled wall median = {v:.6g} s")
    print(f"{prefix}error_rate = {record['error_rate']:.6g} "
          f"({record['failed']} failed / {record['attempted']} attempted)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if not (SRC / "offloadsim" / "cli.py").is_file():
        print(f"error: no offloadsim sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for rec in records:
        report(rec, f"{rec['workload']}: " if len(records) > 1 else "")
    metrics = (
        {f"{rec['workload']}.{k}": m for rec in records for k, m in rec["metrics"].items()}
        if len(records) > 1
        else records[0]["metrics"]
    )
    summary = {
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
