"""Deadline-aware Wi-Fi/cellular network selection.

A mobile user with a file to push before a deadline chooses, slot by
slot, between idling, paying for cellular, and (where covered) free
Wi-Fi.  The package provides an exact finite-horizon planner, a
low-complexity threshold planner for the simplified cost regime, classic
heuristics to compare against, a brute-force oracle for certification,
and a seeded Monte-Carlo experiment harness with a CLI.
"""

from .config import ScenarioConfig, parse_config, serialize_config
from .dp import Policy, ValueTable, solve
from .errors import (
    ConfigError,
    DomainError,
    OffloadError,
    OracleSizeError,
    PreconditionError,
    ResourceLimitError,
    SchemeError,
)
from .model import (
    Action,
    NetworkModel,
    PenaltyFn,
    ProblemSpec,
    QuadraticPenalty,
    State,
    StepPenalty,
    TabulatedPenalty,
    admissible_actions,
    next_file_size,
    payment,
    transition_dist,
)
from .oracle import OracleResult, expectimax
from .sim import (
    AggregateMetrics,
    EpisodeResult,
    ExperimentResult,
    SCHEMES,
    build_grid_mobility,
    run_episode,
    run_experiment,
    sample_instance,
)
from .threshold import MonotoneModel, ThresholdPolicy, solve_monotone

__all__ = [
    "Action",
    "AggregateMetrics",
    "ConfigError",
    "DomainError",
    "EpisodeResult",
    "ExperimentResult",
    "MonotoneModel",
    "NetworkModel",
    "OffloadError",
    "OracleResult",
    "OracleSizeError",
    "PenaltyFn",
    "Policy",
    "PreconditionError",
    "ProblemSpec",
    "QuadraticPenalty",
    "ResourceLimitError",
    "SCHEMES",
    "ScenarioConfig",
    "SchemeError",
    "State",
    "StepPenalty",
    "TabulatedPenalty",
    "ThresholdPolicy",
    "ValueTable",
    "admissible_actions",
    "build_grid_mobility",
    "expectimax",
    "next_file_size",
    "parse_config",
    "payment",
    "run_episode",
    "run_experiment",
    "sample_instance",
    "serialize_config",
    "solve",
    "solve_monotone",
    "transition_dist",
]

__version__ = "0.1.0"
