"""Functional simulator for the Warp array."""

from .array_runner import ArrayRunner, RunResult, run_module
from .cell_state import CellStats, SimulationError
from .scoring import (
    DEFAULT_SCORE_MAX_CYCLES,
    SCORING_SCHEMA_VERSION,
    ModuleScore,
    input_set_digest,
    score_module,
    seeded_input_sets,
)

__all__ = [
    "ArrayRunner",
    "CellStats",
    "DEFAULT_SCORE_MAX_CYCLES",
    "ModuleScore",
    "RunResult",
    "SCORING_SCHEMA_VERSION",
    "SimulationError",
    "input_set_digest",
    "run_module",
    "score_module",
    "seeded_input_sets",
]
