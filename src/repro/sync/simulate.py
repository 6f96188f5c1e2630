"""Measured synchronization: quantum-boundary locking vs. preemptable locks.

:mod:`repro.sync.locks` states the analytic bounds; this module *runs*
them.  On top of a PD² schedule trace we overlay critical-section
activity: each scheduled quantum of a lock-using task issues requests at
random offsets, and we compare two protocols:

* **quantum-boundary locking** (the Pfair-enabled protocol of Sec. 5.1):
  a request that cannot finish before the slot boundary is deferred to
  the task's next quantum.  Locks are always free at boundaries, so a
  *preempted* task never holds a lock and nobody ever blocks on an
  absent holder.  Cost: the deferral latency, bounded by one section.
* **naive preemptable locking**: sections start whenever requested; a
  section still open at the boundary is held *across* the preemption,
  and any other task requesting the resource in the gap blocks until the
  holder is next scheduled — the priority-inversion shape multiprocessor
  locking protocols (MPCP etc.) exist to tame.

The experiment reports deferral counts and worst-case latencies for the
former and cross-preemption blocking events and durations for the
latter; ``benchmarks/bench_ext_locking.py`` prints the table.

This is an *overlay* model: lock activity is replayed on top of a fixed
schedule trace, and a blocked requester's subsequent quanta are not
re-planned.  That simplification biases *against* the quantum-boundary
protocol (its deferral latency is counted in full, while the naive
protocol's knock-on delays are not), so the measured contrast is
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.task import PfairTask
from ..core.trace import ScheduleTrace

__all__ = ["LockingOutcome", "overlay_critical_sections"]


@dataclass
class LockingOutcome:
    """Measured synchronization costs over one schedule."""

    protocol: str
    requests: int = 0
    #: Quantum-boundary protocol: sections pushed to the next quantum.
    deferrals: int = 0
    #: Worst start-delay of a deferred section, in ticks.
    max_deferral_ticks: int = 0
    #: Naive protocol: requests that found the lock held by a task that is
    #: not currently scheduled (blocked across a preemption).
    cross_preemption_blocks: int = 0
    #: Worst such blocking duration, in ticks.
    max_block_ticks: int = 0


def overlay_critical_sections(
    trace: ScheduleTrace,
    tasks: Sequence[PfairTask],
    horizon: int,
    quantum_ticks: int,
    *,
    section_ticks: int,
    request_probability: float = 0.5,
    resource_count: int = 1,
    seed: int = 0,
) -> Tuple[LockingOutcome, LockingOutcome]:
    """Replay ``trace`` under both locking protocols.

    Each scheduled quantum of each task requests, with
    ``request_probability``, one critical section of ``section_ticks`` on
    a random resource at a uniform offset within the quantum.  Returns
    ``(boundary_outcome, naive_outcome)`` for identical request streams.
    """
    if not 0 < section_ticks <= quantum_ticks:
        raise ValueError("need 0 < section_ticks <= quantum_ticks")
    rng = np.random.default_rng(seed)
    # Build the deterministic request stream: (slot, task_id, offset, res).
    requests: List[Tuple[int, int, int, int]] = []
    slots_of: Dict[int, List[int]] = {}
    for task in tasks:
        slots_of[task.task_id] = [a.slot for a in trace.of_task(task)
                                  if a.slot < horizon]
        for slot in slots_of[task.task_id]:
            if rng.uniform() < request_probability:
                offset = int(rng.integers(0, quantum_ticks))
                res = int(rng.integers(0, resource_count))
                requests.append((slot, task.task_id, offset, res))
    requests.sort()

    boundary = LockingOutcome(protocol="quantum-boundary")
    naive = LockingOutcome(protocol="naive-preemptable")
    boundary.requests = naive.requests = len(requests)

    # --- quantum-boundary protocol ---------------------------------------
    next_slot_of: Dict[Tuple[int, int], Optional[int]] = {}
    for slot, tid, offset, _res in requests:
        if offset + section_ticks <= quantum_ticks:
            continue  # fits before the boundary: granted in place
        boundary.deferrals += 1
        later = [s for s in slots_of[tid] if s > slot]
        if later:
            # Starts at the top of the next quantum.
            delay = (later[0] - slot) * quantum_ticks - offset
            boundary.max_deferral_ticks = max(boundary.max_deferral_ticks,
                                              delay)

    # --- naive preemptable protocol ---------------------------------------
    #: resource -> (holder task id, absolute release tick) while held.
    held: Dict[int, Tuple[int, int]] = {}
    for slot, tid, offset, res in requests:
        start = slot * quantum_ticks + offset
        if res in held:
            holder, free_at = held[res]
            if free_at > start:
                if holder != tid:
                    naive.cross_preemption_blocks += 1
                    naive.max_block_ticks = max(naive.max_block_ticks,
                                                free_at - start)
                start = free_at
        end_of_quantum = (slot + 1) * quantum_ticks
        if start + section_ticks <= end_of_quantum:
            held[res] = (tid, start + section_ticks)
            continue
        # The section crosses the boundary: the holder is preempted mid-
        # section and resumes it at its next quantum; the lock stays held
        # across the gap.
        done_in_quantum = max(0, end_of_quantum - start)
        remaining = section_ticks - done_in_quantum
        later = [s for s in slots_of[tid] if s > slot]
        if later:
            free_at = later[0] * quantum_ticks + remaining
        else:
            free_at = horizon * quantum_ticks + remaining
        held[res] = (tid, free_at)
    return boundary, naive
