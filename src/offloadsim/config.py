"""Scenario configuration: a flat ``key = value`` text format and the
typed record it parses into.

All keys have defaults, so an empty file is a valid baseline scenario:
a 4x4 location grid with sticky random-walk mobility, half the cells
Wi-Fi covered, LTE-class cellular against congested Wi-Fi, usage-priced
cellular at 6 $/Gbyte, ten-second slots, a 10 Mbit size grid, and a
quadratic deadline penalty.

Internally the simulator works in megabits: file sizes convert at
8 Mbit per Mbyte, prices at 8000 Mbit per Gbyte, and rates at
``Mbps * slot seconds`` per slot.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import MAX_LATTICE_CELLS, PenaltyFn, QuadraticPenalty, StepPenalty, check_number

MBIT_PER_MBYTE = 8.0
MBIT_PER_GBYTE = 8000.0

_SWEEP_FIELDS = dict(
    deadline="deadline_minutes", mu_wifi="mu_wifi_mbps", file_size="file_mbytes", p_stay="p_stay"
)
SWEEP_AXES = tuple(_SWEEP_FIELDS)

# Checks that ``verify`` runs (``properties.run_verification``).
PROPERTY_NAMES = ("lemma1a", "lemma1b", "lemma2", "theorem2", "theorem3", "oracle")

# Size bounds: the dense L x L mobility matrix stays within the planners'
# lattice budget ``MAX_LATTICE_CELLS``, the horizon keeps one run's path and
# one episode's walked locations (8 bytes per slot) allocatable, and the run
# count and the sweep's size keep its per-episode records (48 bytes per run,
# point and scheme) within ``MAX_SWEEP_RECORDS``: 1.2 GB, 5 points and 5
# schemes at ``MAX_RUNS``.
MAX_HORIZON_SLOTS = 1_000_000
MAX_RUNS = 1_000_000
MAX_SWEEP_RECORDS = 25 * MAX_RUNS

DEFAULT_SWEEP_VALUES = {
    "deadline": (1.0, 2.0, 3.0, 4.0, 5.0),
    "mu_wifi": (20.0, 60.0, 100.0, 140.0, 180.0),
    "file_size": (125.0, 250.0, 500.0, 750.0),
    "p_stay": (0.1, 0.3, 0.5, 0.7, 0.9),
}

# Each int and float field's range where it is not ``>= 0``: ``check_number``'s bound.
_RANGES = {
    **dict.fromkeys(("grid_rows", "grid_cols", "wiffler_window", "runs"), dict(low=1)),
    **dict.fromkeys(("p_stay", "wifi_prob"), dict(low=0, high=1)),
    **dict.fromkeys(("deadline_minutes", "slot_seconds", "grid_step_mbit", "wiffler_theta"),
                    dict(low=0, above=True)),
}


def check_names(names, noun: str, known=None) -> tuple:
    """``names`` as a tuple once it is a non-empty collection, not a string,
    of hashable entries in ``known`` (or ``known`` is None), none repeated,
    else a :class:`ConfigError`: the one rule for every list of names or values."""
    if isinstance(names, str) or not hasattr(names, "__iter__"):
        raise ConfigError(f"expected a list of {noun} entries, got {names!r}")
    names = tuple(names)
    if not names:
        raise ConfigError(
            f"no {noun} given" if known is None else f"no {noun} given; expected some of {known}"
        )
    for name in names:
        if known is not None and name not in known:
            raise ConfigError(f"unknown {noun} {name!r}; expected one of {known}")
        try:
            hash(name)
        except TypeError:  # a list or another collection where one entry belongs
            raise ConfigError(f"{noun} {name!r} is not a single entry") from None
    if len(set(names)) < len(names):
        raise ConfigError(f"{noun} repeated in {names}")
    return names


@dataclass(frozen=True)
class ScenarioConfig:
    grid_rows: int = 4
    grid_cols: int = 4
    p_stay: float = 0.6
    wifi_prob: float = 0.5
    mu_cellular_mbps: float = 90.0
    mu_wifi_mbps: float = 20.0
    rate_std_mbps: float = 5.0
    price_per_gbyte: float = 6.0
    file_mbytes: float = 750.0
    deadline_minutes: float = 5.0
    slot_seconds: float = 10.0
    grid_step_mbit: float = 10.0
    penalty: str = "quadratic"
    penalty_quadratic_coeff: float = 1.0
    penalty_step_amount: float = 100000.0
    wiffler_theta: float = 1.0
    wiffler_window: int = 4
    runs: int = 1000
    seed: int = 12345
    sweep_axis: str = "deadline"
    sweep_values: tuple = ()

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if f.type in ("int", "float"):  # stored as checked: numpy's integers become ints
                value = check_number(getattr(self, f.name), f.name, integer=f.type == "int",
                                     error=ConfigError, **_RANGES.get(f.name, {"low": 0}))
                object.__setattr__(self, f.name, value)
        check_names((self.penalty,), "penalty", ("quadratic", "step"))
        check_names((self.sweep_axis,), "sweep_axis", SWEEP_AXES)
        slots = 60.0 * self.deadline_minutes / self.slot_seconds
        if not slots < MAX_HORIZON_SLOTS + 0.5:  # the rounded horizon, or an inf count
            raise ConfigError(
                f"deadline_minutes too large for slot_seconds={self.slot_seconds!r}: "
                f"the horizon is {slots!r} slots, above {MAX_HORIZON_SLOTS}"
            )
        if abs(slots - round(slots)) > 1e-9 or round(slots) < 1:
            raise ConfigError(
                f"deadline_minutes={self.deadline_minutes!r} and "
                f"slot_seconds={self.slot_seconds!r} give a non-integral "
                f"slot count {slots!r}"
            )
        self._check_derived()
        if not isinstance(self.sweep_values, tuple) or self.sweep_values:  # () is none
            object.__setattr__(self, "sweep_values", check_names(self.sweep_values, "sweep value"))
            self.resolve_sweep()  # each point as ``run_experiment`` builds it

    def _check_derived(self) -> None:
        """Reject finite inputs whose derived quantities overflow.  Per-slot
        rates stay below 2**53 grid steps, so the planners' step counts are
        exact integers, and a bound on one run's cost is squared and summed
        over the runs, as the confidence intervals do.  The mobility matrix
        must fit ``MAX_LATTICE_CELLS`` and the run count ``MAX_RUNS``."""
        cells = self.num_locations**2
        if cells > MAX_LATTICE_CELLS:
            raise ConfigError(
                f"grid_rows and grid_cols too large: the mobility matrix of "
                f"{self.num_locations} locations has {cells} cells, above {MAX_LATTICE_CELLS}"
            )
        if self.runs > MAX_RUNS:
            raise ConfigError(f"runs too large: {self.runs} is above {MAX_RUNS}")
        step = self.grid_step_mbit
        mu_c, mu_w, std = (
            self.rate_mbit_per_slot(v)
            for v in (self.mu_cellular_mbps, self.mu_wifi_mbps, self.rate_std_mbps)
        )
        size = self.file_mbit + step  # the file rounded up to the grid, at most
        worst = self.horizon * size * self.price_per_mbit + self.make_penalty()(size)
        for keys, what, value, limit in (
            ("file_mbytes", "file size in Mbit", self.file_mbit, math.inf),
            ("file_mbytes", "grid point count", self.file_mbit / step, math.inf),
            ("mu_cellular_mbps", "cellular rate in grid steps", mu_c / step, 2.0**53),
            ("mu_wifi_mbps", "Wi-Fi rate in grid steps", mu_w / step, 2.0**53),
            ("rate_std_mbps", "rate spread in grid steps", std / step, 2.0**53),
            ("price_per_gbyte", "cellular cost per slot", mu_c * self.price_per_mbit, math.inf),
            ("price_per_gbyte, file_mbytes, penalty or runs", "squared cost bound",
             worst * worst * self.runs, math.inf),
        ):
            if not value < limit:
                raise ConfigError(f"{keys} too large: the {what} is {value!r}, not below {limit!r}")

    @property
    def horizon(self) -> int:
        return int(round(60.0 * self.deadline_minutes / self.slot_seconds))

    @property
    def num_locations(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def file_mbit(self) -> float:
        return self.file_mbytes * MBIT_PER_MBYTE

    @property
    def price_per_mbit(self) -> float:
        return self.price_per_gbyte / MBIT_PER_GBYTE

    def rate_mbit_per_slot(self, mbps: float) -> float:
        return mbps * self.slot_seconds

    def make_penalty(self) -> PenaltyFn:
        if self.penalty == "quadratic":
            return QuadraticPenalty(self.penalty_quadratic_coeff)
        return StepPenalty(self.penalty_step_amount)

    def resolve_sweep(self, axis: str = None, values=None) -> tuple:
        """``(axis, values, points)``: the caller's axis, else (if None)
        ``sweep_axis``; the caller's values, else (if None) ``sweep_values``
        on ``sweep_axis`` only and ``DEFAULT_SWEEP_VALUES`` on any other axis;
        one validated config per value, with no sweep values of its own."""
        axis = self.sweep_axis if axis is None else axis
        (axis,) = check_names((axis,), "sweep axis", SWEEP_AXES)
        own = values is None and axis == self.sweep_axis and bool(self.sweep_values)
        if values is None:
            values = self.sweep_values if own else DEFAULT_SWEEP_VALUES[axis]
        values = check_names(values, "sweep value")
        base = dataclasses.replace(self, sweep_values=()) if self.sweep_values else self
        points = []
        for value in values:
            try:
                points.append(dataclasses.replace(base, **{_SWEEP_FIELDS[axis]: value}))
            except ConfigError as exc:
                what = "sweep_values entry" if own else "sweep value"
                raise ConfigError(f"{what} {value!r} is not valid: {exc}") from None
        return axis, values, tuple(points)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sweep_values"] = list(self.sweep_values)
        return d


def split_list(text: str) -> tuple:
    """The stripped, non-blank entries of comma-separated ``text``."""
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _float_list(raw: str) -> tuple:
    return tuple(map(float, split_list(raw)))


# The parser of each key, by its field's annotation (a string, since the
# module defers annotations).
_PARSE_AS = {"int": int, "float": float, "str": str, "tuple": _float_list}
_PARSERS = {f.name: _PARSE_AS[f.type] for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(key: str, raw: str):
    if key not in _PARSERS:
        raise ConfigError(f"unknown configuration key '{key}'")
    raw = raw.strip()
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {raw!r}") from exc


def parse_config_text(text: str) -> ScenarioConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        values[key] = _parse_value(key, raw)
    return ScenarioConfig(**values)


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "sweep_values":
            if not value:
                continue
            rendered = ",".join(repr(v) for v in value)
        else:
            rendered = value if isinstance(value, str) else repr(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
