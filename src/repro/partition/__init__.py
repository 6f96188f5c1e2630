"""Partitioned multiprocessor scheduling: bins, heuristics, acceptance
tests, analytic bounds, and end-to-end partitioners (EDF-FF, RM-FF)."""

from .accept import (
    AcceptanceTest,
    EDFOverheadTest,
    EDFUtilizationTest,
    RMHyperbolicTest,
    RMLiuLaylandTest,
    RMResponseTimeTest,
    rm_response_time,
)
from .bins import Partition, ProcessorBin
from .blocking import (
    EDFBlockingTest,
    edf_srp_feasible,
    local_blocking,
    pd2_section_inflation,
)
from .demand import EDFDemandTest, demand_bound, edf_feasible, testing_points
from .bounds import (
    lopez_beta,
    lopez_guarantee,
    oh_baker_rm_guarantee,
    pathological_specs,
    simple_guarantee,
    worst_case_achievable,
)
from .heuristics import (
    ORDERINGS,
    PLACEMENTS,
    PartitionFailure,
    PartitionResult,
    best_fit,
    first_fit,
    next_fit,
    partition,
    worst_fit,
)
from .partitioner import (
    OnlinePartitioner,
    RM_TESTS,
    edf_ff,
    edf_ff_order,
    edf_overhead_first_fit,
    rm_ff,
)

__all__ = [
    "AcceptanceTest",
    "EDFUtilizationTest",
    "EDFOverheadTest",
    "RMLiuLaylandTest",
    "RMHyperbolicTest",
    "RMResponseTimeTest",
    "rm_response_time",
    "Partition",
    "ProcessorBin",
    "EDFBlockingTest",
    "edf_srp_feasible",
    "local_blocking",
    "pd2_section_inflation",
    "EDFDemandTest",
    "demand_bound",
    "edf_feasible",
    "testing_points",
    "worst_case_achievable",
    "simple_guarantee",
    "lopez_guarantee",
    "lopez_beta",
    "oh_baker_rm_guarantee",
    "pathological_specs",
    "PLACEMENTS",
    "ORDERINGS",
    "PartitionFailure",
    "PartitionResult",
    "partition",
    "first_fit",
    "best_fit",
    "worst_fit",
    "next_fit",
    "edf_ff",
    "edf_ff_order",
    "edf_overhead_first_fit",
    "rm_ff",
    "OnlinePartitioner",
    "RM_TESTS",
]
