"""Workload generation: task specs, utilization/period distributions, and
seeded random task-set generators."""

from .distributions import (
    UTILIZATION_SAMPLERS,
    bimodal_utilizations,
    exponential_utilizations,
    log_uniform_periods,
    uniform_simplex_utilizations,
    uniform_utilizations,
)
from .generator import (
    TaskSetGenerator,
    generate_task_set,
    specs_to_pfair_tasks,
    specs_to_uni_tasks,
)
from .spec import TaskColumns, TaskSpec, max_utilization, total_utilization

__all__ = [
    "TaskSpec",
    "TaskColumns",
    "total_utilization",
    "max_utilization",
    "TaskSetGenerator",
    "generate_task_set",
    "specs_to_pfair_tasks",
    "specs_to_uni_tasks",
    "UTILIZATION_SAMPLERS",
    "uniform_simplex_utilizations",
    "uniform_utilizations",
    "bimodal_utilizations",
    "exponential_utilizations",
    "log_uniform_periods",
]
