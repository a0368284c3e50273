"""Measurement machinery: speedup, overheads, figure series."""

from .experiments import (
    MeasuredPair,
    measure_pair,
    measure_user_program,
    profile_for,
    user_program_profile,
)
from .gantt import render_gantt, utilization
from .job_gantt import (
    JobSpan,
    assign_slots,
    render_job_gantt,
)
from .overhead import OverheadBreakdown, compute_overhead
from .series import Figure, Series
from .speedup import Speedup, efficiency, speedup_of

__all__ = [
    "Figure",
    "JobSpan",
    "MeasuredPair",
    "OverheadBreakdown",
    "Series",
    "Speedup",
    "assign_slots",
    "compute_overhead",
    "efficiency",
    "measure_pair",
    "measure_user_program",
    "profile_for",
    "render_gantt",
    "render_job_gantt",
    "speedup_of",
    "user_program_profile",
    "utilization",
]
