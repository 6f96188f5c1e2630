"""Partitioned multiprocessor simulation: one uniprocessor EDF/RM per bin.

Under partitioning each processor schedules its own task subset from a
local queue, completely independently — which is why the paper notes that
partitioned scheduling overhead does not grow with the processor count.
This façade runs one :class:`~repro.core.uniproc.UniprocSimulator` per
processor bin of a packing and aggregates the results; it also provides
the Sec. 5.4 fault-tolerance experiment — killing a processor and trying
to re-home its tasks by first fit into the survivors' spare capacity,
which can fail even when total utilization is below ``M − 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from ..partition.accept import AcceptanceTest, EDFUtilizationTest
from ..partition.bins import Partition
from ..partition.heuristics import PLACEMENTS
from ..workload.spec import TaskSpec
from ..core.uniproc import UniprocResult, UniprocSimulator, UniTask

__all__ = ["PartitionedResult", "PartitionedSimulator", "reassign_after_failure"]


@dataclass
class PartitionedResult:
    """Aggregated outcome of per-processor runs."""

    per_processor: List[UniprocResult] = field(default_factory=list)

    @property
    def miss_count(self) -> int:
        return sum(r.miss_count for r in self.per_processor)

    @property
    def preemptions(self) -> int:
        return sum(r.preemptions for r in self.per_processor)

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.per_processor)

    def misses(self) -> List[Tuple[str, int, int, Optional[int]]]:
        out = []
        for r in self.per_processor:
            out.extend(r.misses)
        return out


class PartitionedSimulator:
    """Simulate a packed partition, each bin under its own uniprocessor
    scheduler (``edf`` or ``rm``)."""

    def __init__(self, partition: Partition, *, policy: str = "edf") -> None:
        self.partition = partition
        self.policy = policy

    def run(self, horizon: int) -> PartitionedResult:
        result = PartitionedResult()
        for b in self.partition.bins:
            tasks = [UniTask(t.execution, t.period, name=t.name or None)
                     for t in b.tasks]
            sim = UniprocSimulator(tasks, policy=self.policy)
            result.per_processor.append(sim.run(horizon))
        return result


def reassign_after_failure(partition: Partition, failed: int, *,
                           accept: Optional[AcceptanceTest] = None
                           ) -> Tuple[bool, List[TaskSpec]]:
    """Try to re-home the failed processor's tasks into the survivors.

    First fit over the surviving bins with the given acceptance test
    (default: exact EDF).  Returns ``(fully_reassigned, orphans)`` — tasks
    in ``orphans`` could not be placed anywhere, i.e. the partitioned
    system cannot transparently tolerate this failure (contrast with Pfair,
    which tolerates the loss of K processors whenever total weight is at
    most M − K).  The partition is mutated with the successful moves.
    """
    if accept is None:
        accept = EDFUtilizationTest()
    if not 0 <= failed < partition.processors:
        raise IndexError(f"no processor {failed}")
    victim = partition.bins[failed]
    survivors = [b for b in partition.bins if b.index != failed]
    orphans: List[TaskSpec] = []
    # Largest first improves the odds, like any repacking.
    for spec in sorted(victim.tasks, key=lambda s: -s.utilization):
        chosen = PLACEMENTS["ff"](survivors, spec, accept)
        if chosen is None:
            orphans.append(spec)
        else:
            chosen[0].add(spec, chosen[1])
    victim.tasks.clear()
    victim.load = Fraction(0)
    victim.rescan_residents()
    return (not orphans), orphans
