"""Schedule caches: cold-resumption pricing and hyperperiod memoisation.

Two unrelated-looking concerns share this module because both exploit the
same structural fact about quantum schedules — what happens between two
points in time is determined by a small amount of boundary state:

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

* **Hyperperiod memoisation** for the PD² vector kernel
  (:class:`~repro.sim.vector.VectorPD2Simulator`).  A synchronous
  periodic system is a deterministic automaton whose per-slot decisions
  depend only on the live subtasks, their windows, and the per-task
  affinity state.  At a hyperperiod boundary ``t = kH`` that state
  compresses to a tiny signature per task (relative eligibility, relative
  subtask index, processor affinity); when a signature repeats, the
  schedule between the two boundaries repeats forever after, so the
  per-cycle :class:`~repro.core.metrics.SimStats` delta can be *tiled*
  across the remaining horizon instead of re-simulated.  The kernel
  samples signatures and tiles deltas; :class:`CycleLog` does the cycle
  detection and :data:`HYPERPERIOD_CACHE` remembers measured cycle
  deltas across runs (keyed by the normalized task set), so a repeated
  simulation of the same system only simulates its first hyperperiod.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..core.task import PfairTask
from ..core.trace import ScheduleTrace
from ..util.lru import LRUCache

if TYPE_CHECKING:
    from .vector import VectorPD2Simulator

__all__ = [
    "CacheModel",
    "ColdResumptions",
    "count_cold_resumptions",
    "CycleDelta",
    "CycleLog",
    "HYPERPERIOD_CACHE",
    "hyperperiod_cache_key",
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


# ---------------------------------------------------------------------------
# Hyperperiod memoisation for the PD² vector kernel.
# ---------------------------------------------------------------------------

#: Measured cycle deltas, shared across simulation runs in this process.
#: Keyed by :func:`hyperperiod_cache_key`; each value is a dict mapping a
#: boundary signature to its :class:`CycleDelta`.  Entries contain only
#: plain integers (no task objects, no absolute times), so they apply to
#: any run of an equivalent system regardless of task ids.
HYPERPERIOD_CACHE = LRUCache(capacity=256)


def hyperperiod_cache_key(sim: "VectorPD2Simulator") -> tuple:
    """Normalized identity of a simulation configuration.

    Everything the slot-to-slot evolution depends on, with task identity
    reduced to position: weights, per-task/global early-release flags, the
    processor count and the affinity mode.  Phases are implicitly zero
    (the memoizer only runs then).
    """
    return (
        tuple((t.execution, t.period, t.early_release) for t in sim.tasks),
        sim.processors,
        sim.early_release,
        sim.preserve_affinity,
    )


class CycleDelta:
    """Per-cycle statistics delta, all relative to the cycle boundary.

    ``per_task[pos]`` is ``(quanta, preemptions, migrations, jp_rel)`` for
    the task at position ``pos``, where ``jp_rel`` lists
    ``(job_offset, count)`` pairs of per-job preemption counts with job
    indices relative to the boundary.  ``cycles`` is the cycle length in
    hyperperiods.

    Deltas contain only plain integers relative to the boundary, so a
    delta measured in one run applies verbatim to any later run of an
    equivalent system — :data:`HYPERPERIOD_CACHE` entries are shared.
    """

    __slots__ = ("cycles", "per_task", "busy", "idle")

    def __init__(self, cycles: int,
                 per_task: Tuple[Tuple[int, int, int, tuple], ...],
                 busy: int, idle: int) -> None:
        self.cycles = cycles
        self.per_task = per_task
        self.busy = busy
        self.idle = idle


class CycleLog:
    """Boundary-signature bookkeeping for one vector-kernel run.

    One instance serves one simulation run.  The owner samples a boundary
    signature at every hyperperiod multiple and drives the protocol:

    1. :meth:`probe` — a cross-run cache hit returns a ready-made
       :class:`CycleDelta` immediately;
    2. otherwise :meth:`previous` — a repeat of a signature seen earlier
       *this run* identifies a cycle; the owner measures the delta from
       the recorded snapshot and :meth:`store`\\ s it for future runs;
    3. otherwise :meth:`record` the signature and snapshot and keep
       simulating; after :data:`MAX_BOUNDARIES` distinct signatures
       :attr:`exhausted` is set and the owner should stop sampling.

    The class is agnostic to what signatures and snapshots contain; the
    vector kernel's boundary capture and tiling live with its columns.

    Concurrency (docs/CONCURRENCY.md): :data:`HYPERPERIOD_CACHE` itself
    is internally locked, but the *inner* per-configuration dict a log
    fetches from it is mutated in place (``self._cached[sig] = delta``)
    without a lock.  That is safe because simulations only ever run on
    the main thread of their process (campaign drivers, or a campaign
    worker's own main thread) — the admission service never simulates.
    Growing a dict under the GIL is atomic per operation, and two
    processes each mutate their own copy.  If simulations are ever
    offloaded to threads, give the inner dict the same lock treatment as
    :class:`~repro.util.lru.LRUCache`.
    """

    #: Boundaries sampled before giving up on finding a cycle.
    MAX_BOUNDARIES = 16

    __slots__ = ("_seen", "_ckey", "_cached", "exhausted")

    def __init__(self, cache_key: tuple) -> None:
        self._seen: Dict[tuple, Tuple[int, tuple]] = {}
        self._ckey = cache_key
        self._cached: Optional[Dict[tuple, CycleDelta]] = \
            HYPERPERIOD_CACHE.get(cache_key)
        self.exhausted = False

    def probe(self, sig: tuple) -> Optional[CycleDelta]:
        """Cross-run cached delta for ``sig``, or ``None``."""
        return self._cached.get(sig) if self._cached is not None else None

    def previous(self, sig: tuple) -> Optional[Tuple[int, tuple]]:
        """``(boundary_time, snapshot)`` of an earlier sighting, or ``None``."""
        return self._seen.get(sig)

    def store(self, sig: tuple, delta: CycleDelta) -> None:
        """Publish a measured delta to the cross-run cache."""
        if self._cached is None:
            self._cached = {}
            HYPERPERIOD_CACHE.put(self._ckey, self._cached)
        self._cached[sig] = delta

    def record(self, sig: tuple, now: int, snapshot: tuple) -> None:
        """Remember ``sig`` at ``now`` for later cycle detection."""
        self._seen[sig] = (now, snapshot)
        if len(self._seen) >= self.MAX_BOUNDARIES:
            self.exhausted = True
