"""Cold-resumption pricing, and the hyperperiod memo's cross-run store.

* **Cache-related preemption delay accounting** (paper, Sec. 4).  The
  paper charges each task a delay ``D(T)`` — the time to re-service its
  working set from a cold cache — on every resumption after a preemption,
  and assumes migrations cost the same as preemptions because the
  analysis already assumes a cold cache either way.
  :class:`CacheModel` applies that model *to a schedule trace*: given
  per-task delays, it counts the cold resumptions a PD² (or any quantum)
  schedule actually produced and prices them, so Eq. (3)'s analytic
  charge can be checked against simulation (``tests/test_sim_cache.py``
  asserts charge <= Eq. (3) budget per job).  A resumption is *cold* when
  the task's previous quantum is not the immediately preceding slot on
  the same processor; back-to-back quanta on one processor keep the cache
  warm (the continuation rule the simulator's processor assignment
  implements).

* :data:`HYPERPERIOD_CACHE` holds the cycle deltas the PD² vector
  kernel (:class:`~repro.sim.vector.VectorPD2Simulator`) measures, so a
  repeated simulation of the same system only simulates its first
  hyperperiod.  The kernel owns the memo itself — boundary signatures,
  cycle detection, deltas and tiling; this module only keeps the store,
  where its callers and the benchmark's cache counters find it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from ..core.task import PfairTask
from ..core.trace import ScheduleTrace
from ..util.lru import LRUCache

__all__ = [
    "CacheModel",
    "ColdResumptions",
    "count_cold_resumptions",
    "HYPERPERIOD_CACHE",
]


@dataclass
class ColdResumptions:
    """Cold-cache events and their priced cost for one task."""

    resumptions: int = 0
    first_dispatches: int = 0
    delay_ticks: int = 0


def count_cold_resumptions(trace: ScheduleTrace, task: PfairTask) -> ColdResumptions:
    """Count cold resumptions of ``task`` in ``trace``.

    The first quantum of each job is a dispatch, not a resumption (its
    cache cost is charged separately in Eq. (3) as the ``+C`` term); a
    later quantum is cold iff it does not directly continue the previous
    quantum on the same processor.
    """
    out = ColdResumptions()
    prev_slot: Optional[int] = None
    prev_proc: Optional[int] = None
    prev_job: Optional[int] = None
    e = task.execution
    for a in trace.of_task(task):
        job = (a.subtask_index - 1) // e + 1
        if job != prev_job:
            out.first_dispatches += 1
        elif not (prev_slot == a.slot - 1 and prev_proc == a.processor):
            out.resumptions += 1
        prev_slot, prev_proc, prev_job = a.slot, a.processor, job
    return out


class CacheModel:
    """Prices cold resumptions with per-task delays ``D(T)``.

    Delays come either from an explicit mapping (task name -> ticks) or
    from the paper's default distribution, uniform on [0, 100] µs, drawn
    per task from a seeded generator.
    """

    def __init__(self, delays: Optional[Mapping[str, int]] = None, *,
                 max_delay: int = 100, seed: int = 0) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be nonnegative")
        self._explicit = dict(delays) if delays is not None else None
        self._max_delay = max_delay
        self._rng = np.random.default_rng(seed)
        self._drawn: Dict[str, int] = {}

    def delay_of(self, task: PfairTask) -> int:
        if self._explicit is not None:
            try:
                return self._explicit[task.name]
            except KeyError:
                raise KeyError(f"no cache delay configured for {task.name!r}") \
                    from None
        if task.name not in self._drawn:
            self._drawn[task.name] = int(
                self._rng.integers(0, self._max_delay + 1))
        return self._drawn[task.name]

    def charge(self, trace: ScheduleTrace,
               tasks: Iterable[PfairTask]) -> Dict[str, ColdResumptions]:
        """Price every task's cold resumptions in the trace."""
        out: Dict[str, ColdResumptions] = {}
        for task in tasks:
            events = count_cold_resumptions(trace, task)
            events.delay_ticks = events.resumptions * self.delay_of(task)
            out[task.name] = events
        return out

    def total_delay(self, trace: ScheduleTrace,
                    tasks: Iterable[PfairTask]) -> int:
        return sum(c.delay_ticks for c in self.charge(trace, tasks).values())


#: Measured cycle deltas of the PD² vector kernel, shared across runs
#: in this process.  Keyed by the normalized system (per-task ``(E, P,
#: early_release)`` by position, the processor count and the global
#: early-release flag); each value is a dict mapping a boundary signature
#: to its delta.  Entries hold only plain integers relative to the
#: boundary (no task objects, no absolute times), so they apply to any
#: run of an equivalent system regardless of task ids.
#:
#: Concurrency (docs/CONCURRENCY.md): the LRU itself is internally
#: locked, but the kernel mutates the *inner* per-system dict it fetched
#: in place, without a lock.  That is safe because simulations only ever
#: run on the main thread of their process (campaign drivers, or a
#: campaign worker's own main thread) — the admission service never
#: simulates.  Growing a dict under the GIL is atomic per operation, and
#: two processes each mutate their own copy.  If simulations are ever
#: offloaded to threads, give the inner dict the same lock treatment as
#: :class:`~repro.util.lru.LRUCache`.
HYPERPERIOD_CACHE = LRUCache(capacity=256)
