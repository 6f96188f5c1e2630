"""Bin-packing heuristics for task-to-processor assignment.

Optimal assignment is bin packing (NP-hard in the strong sense), so online
partitioning uses polynomial heuristics (paper, Sec. 3).  A heuristic here
is placement × ordering × acceptance test:

* placements — **FF** first fit, **BF** best fit (minimum spare after
  addition), **WF** worst fit (maximum spare), **NF** next fit (only the
  most recently opened bin);
* orderings — as given, decreasing utilization (FFD/BFD/...), decreasing
  period (required by the overhead-aware EDF test), increasing period;
* acceptance tests — any :class:`~repro.partition.accept.AcceptanceTest`,
  probed exactly through its ``admit``.

``partition(...)`` runs one combination and either packs into at most
``max_bins`` processors or reports failure; with ``max_bins=None`` it
opens bins freely, so the processor count is the smallest first fit
needs.  :data:`PLACEMENTS` is the only placement code: the online
partitioner and the failover re-homing call its ``"ff"`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..workload.spec import TaskSpec
from .accept import AcceptanceTest, EDFUtilizationTest
from .bins import Partition, ProcessorBin

__all__ = [
    "PLACEMENTS",
    "ORDERINGS",
    "PartitionFailure",
    "PartitionResult",
    "partition",
    "first_fit",
    "best_fit",
    "worst_fit",
    "next_fit",
]


class PartitionFailure(Exception):
    """The heuristic could not place some task within ``max_bins``."""

    def __init__(self, spec: TaskSpec, partition: Partition) -> None:
        self.spec = spec
        self.partition = partition
        super().__init__(f"could not place {spec.name or spec} "
                         f"on {partition.processors} processors")


@dataclass
class PartitionResult:
    """A successful packing."""

    partition: Partition
    order: Tuple[str, ...]  # task names in placement order

    @property
    def processors(self) -> int:
        return self.partition.processors


def _order_given(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return list(specs)


def _order_decreasing_utilization(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return sorted(specs, key=lambda s: (-s.utilization, s.period, s.name))


def _order_decreasing_period(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    # The utilization tie-break is only consulted at equal periods, where
    # utilization order is execution order — so the key can stay integer.
    return sorted(specs, key=lambda s: (-s.period, -s.execution, s.name))


def _order_increasing_period(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return sorted(specs, key=lambda s: (s.period, -s.execution, s.name))


ORDERINGS: dict = {
    "given": _order_given,
    "decreasing_utilization": _order_decreasing_utilization,
    "decreasing_period": _order_decreasing_period,
    "increasing_period": _order_increasing_period,
}


#: A placement's answer: the chosen bin and the utilization to commit
#: there, or ``None``.
_Choice = Optional[Tuple[ProcessorBin, Fraction]]


def _place_ff(bins: Sequence[ProcessorBin], spec: TaskSpec,
              accept: AcceptanceTest) -> _Choice:
    """The first admitting bin, probing no bin after it."""
    for b in bins:
        u = accept.admit(b, spec)
        if u is not None:
            return b, u
    return None


def _place_nf(bins: Sequence[ProcessorBin], spec: TaskSpec,
              accept: AcceptanceTest) -> _Choice:
    """The last bin, if it admits; no other bin is probed."""
    if bins:
        u = accept.admit(bins[-1], spec)
        if u is not None:
            return bins[-1], u
    return None


def _place_extreme(bins: Sequence[ProcessorBin], spec: TaskSpec,
                   accept: AcceptanceTest, *, best: bool) -> _Choice:
    """The admitting bin with the least (``best``) or most spare
    capacity after the addition, the first such on ties; probes every
    bin."""
    chosen = None
    for b in bins:
        u = accept.admit(b, spec)
        if u is None:
            continue
        spare_after = b.spare - u
        if chosen is None or (spare_after < chosen[2] if best
                              else spare_after > chosen[2]):
            chosen = (b, u, spare_after)
    return (chosen[0], chosen[1]) if chosen else None


#: Each placement takes ``(bins, spec, accept)`` and returns the chosen
#: bin with the utilization ``accept`` commits there, or ``None`` when no
#: bin it probes admits ``spec``.  Acceptance tests are stateless, so a
#: placement probes only the bins its rule can choose.
PLACEMENTS: dict = {
    "ff": _place_ff,
    "bf": partial(_place_extreme, best=True),
    "wf": partial(_place_extreme, best=False),
    "nf": _place_nf,
}


def partition(specs: Sequence[TaskSpec], *,
              placement: str = "ff",
              ordering: str = "given",
              accept: Optional[AcceptanceTest] = None,
              max_bins: Optional[int] = None) -> PartitionResult:
    """Pack ``specs`` onto processors; raises :class:`PartitionFailure`
    if a task cannot be placed within ``max_bins``.

    ``accept`` defaults to the exact EDF utilization test.
    """
    try:
        order_fn = ORDERINGS[ordering]
    except KeyError:
        raise ValueError(f"unknown ordering {ordering!r}; "
                         f"options: {sorted(ORDERINGS)}") from None
    try:
        place_fn = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(f"unknown placement {placement!r}; "
                         f"options: {sorted(PLACEMENTS)}") from None
    if accept is None:
        accept = EDFUtilizationTest()
    part = Partition()
    ordered = order_fn(specs)
    for spec in ordered:
        chosen = place_fn(part.bins, spec, accept)
        if chosen is None:
            if max_bins is not None and part.processors >= max_bins:
                raise PartitionFailure(spec, part)
            b = part.new_bin()
            u = accept.admit(b, spec)
            if u is None:
                # Not schedulable even alone (e.g. inflated cost > period).
                raise PartitionFailure(spec, part)
        else:
            b, u = chosen
        b.add(spec, u)
    return PartitionResult(partition=part, order=tuple(s.name for s in ordered))


def first_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """First fit in the given order (the paper's FF)."""
    return partition(specs, placement="ff", **kw)


def best_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Best fit: minimal spare capacity after the addition (the paper's BF)."""
    return partition(specs, placement="bf", **kw)


def worst_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Worst fit: maximal spare capacity after the addition."""
    return partition(specs, placement="wf", **kw)


def next_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Next fit: only the most recently opened bin is considered."""
    return partition(specs, placement="nf", **kw)
