"""Slot-synchronous M-processor simulator for Pfair scheduling algorithms.

This is the substrate every Pfair experiment in the paper runs on: time
advances in unit quanta (slots); in each slot the scheduler picks at most
one subtask per processor from a single system-wide ready queue; a task may
run on different processors in different slots (migration) but never on two
processors in the same slot (no intra-task parallelism) — exactly the model
of Sec. 2 of the paper.

Design notes (see DESIGN.md §6):

* The ready queue is a binary heap of priority keys — the same data
  structure the authors used for the Fig. 2 overhead measurements.
* Subtask releases are *event driven*: each task has at most one live
  subtask in the system (its earliest unscheduled one — subtasks of a task
  execute in index order, so no other could run anyway), and scheduling a
  subtask activates its successor.  Per-slot cost is O(M log N) plus
  arrivals, independent of the number of tasks with no work pending.
* Processor assignment preserves affinity: a task scheduled in consecutive
  slots keeps its processor (the observation behind the paper's
  ``1 + min(E-1, P-E)`` preemption bound), and otherwise prefers the
  processor it last ran on, so the migration counts reported by
  :class:`~repro.core.metrics.SimStats` reflect the paper's accounting.

Dynamic behaviour — sporadic/IS arrivals, tasks joining and leaving — is
fed in through ``arrivals``: a list of ``(time, callback)`` pairs applied
at the start of the given slot (callbacks typically call
``SporadicTask.release_job`` or ``IntraSporadicTask.arrive``, or register a
join/leave via :mod:`repro.core.dynamic`).  Processor failures are modelled
with ``capacity_fn`` mapping a slot to the number of live processors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .priority import PD2Priority, PriorityPolicy
from .task import PfairTask, Subtask
from .metrics import DeadlineMiss, SimStats
from .trace import ScheduleTrace

__all__ = ["QuantumSimulator", "SimResult", "DeadlineMissError"]


class DeadlineMissError(Exception):
    """Raised when ``on_miss='raise'`` and a pseudo-deadline is violated."""

    def __init__(self, miss: DeadlineMiss) -> None:
        self.miss = miss
        super().__init__(
            f"{miss.task.name}[{miss.subtask_index}] missed pseudo-deadline "
            f"{miss.deadline} (completed at {miss.completed_at})"
        )


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    stats: SimStats
    trace: Optional[ScheduleTrace]
    horizon: int
    processors: int
    policy_name: str
    tasks: Sequence[PfairTask]

    @property
    def missed(self) -> bool:
        return bool(self.stats.misses)


class _Stalled:
    """A task whose next subtask's arrival is not yet known."""

    __slots__ = ("task", "index", "lower_bound")

    def __init__(self, task: PfairTask, index: int, lower_bound: int) -> None:
        self.task = task
        self.index = index
        self.lower_bound = lower_bound


class QuantumSimulator:
    """Drives a Pfair priority policy over unit quanta on M processors."""

    def __init__(
        self,
        tasks: Iterable[PfairTask],
        processors: int,
        policy: Optional[PriorityPolicy] = None,
        *,
        early_release: bool = False,
        trace: bool = False,
        on_miss: str = "record",
        arrivals: Optional[Iterable[Tuple[int, Callable[[], None]]]] = None,
        capacity_fn: Optional[Callable[[int], int]] = None,
        preserve_affinity: bool = True,
    ) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        if on_miss not in ("record", "raise"):
            raise ValueError(f"on_miss must be 'record' or 'raise', got {on_miss!r}")
        self.tasks: List[PfairTask] = list(tasks)
        self.processors = processors
        self.policy = policy if policy is not None else PD2Priority()
        self.early_release = early_release
        self.on_miss = on_miss
        self.capacity_fn = capacity_fn
        #: When False, processors are assigned lowest-free-first with no
        #: regard to where a task last ran — the ablation baseline that
        #: quantifies how much the affinity heuristic saves in migrations.
        self.preserve_affinity = preserve_affinity
        self.trace: Optional[ScheduleTrace] = ScheduleTrace() if trace else None
        self.stats = SimStats()
        self._arrivals: List[Tuple[int, int, Callable[[], None]]] = []
        if arrivals is not None:
            for seq, (time, cb) in enumerate(arrivals):
                self._arrivals.append((time, seq, cb))
            heapq.heapify(self._arrivals)
        # (eligible, seq, subtask): known subtasks waiting to become eligible.
        self._pending: List[Tuple[int, int, Subtask]] = []
        # (key, seq, subtask): eligible subtasks, heap-ordered by policy key.
        self._ready: List[Tuple[object, int, Subtask]] = []
        self._stalled: Dict[int, _Stalled] = {}
        self._seq = 0
        #: Index of the most recently scheduled subtask per task id (0 if
        #: never scheduled) — needed by the dynamic leave rules, which are
        #: stated in terms of the last-scheduled subtask.
        self.last_scheduled_index: Dict[int, int] = {}
        for task in self.tasks:
            self._activate(task, 1, lower_bound=0)

    def add_task(self, task: PfairTask, now: int = 0) -> None:
        """Admit ``task`` into a (possibly running) simulation.

        The caller is responsible for admission control (Eq. (2)); see
        :mod:`repro.core.dynamic`.  The task's first subtask must not be
        eligible before ``now``.
        """
        self.tasks.append(task)
        self._activate(task, 1, lower_bound=now)

    # -- internals -----------------------------------------------------------

    def _activate(self, task: PfairTask, index: int, lower_bound: int) -> None:
        """Bring subtask ``index`` of ``task`` into the system, eligible no
        earlier than ``lower_bound``."""
        st = task.subtask(index)
        if st is None:
            # Arrival unknown (sporadic/IS) or the task has left the system.
            if task.last_subtask is None or index <= task.last_subtask:
                self._stalled[task.task_id] = _Stalled(task, index, lower_bound)
            return
        self._seq += 1
        heapq.heappush(self._pending,
                       (max(st.eligible, lower_bound), self._seq, st))

    def _drain_arrivals(self, now: int) -> None:
        while self._arrivals and self._arrivals[0][0] <= now:
            _, _, cb = heapq.heappop(self._arrivals)
            cb()
        if self._stalled:
            # Retry stalled tasks whose arrivals may now be known.  Only
            # entries whose subtask became known leave the dict, so this is
            # cheap when nothing changed.
            for tid in list(self._stalled):
                entry = self._stalled[tid]
                st = entry.task.subtask(entry.index)
                if st is not None:
                    del self._stalled[tid]
                    self._seq += 1
                    heapq.heappush(self._pending, (
                        max(st.eligible, entry.lower_bound), self._seq, st))
                elif (entry.task.last_subtask is not None
                      and entry.index > entry.task.last_subtask):
                    del self._stalled[tid]  # task left; drop the stall

    def _record_miss(self, st: Subtask, completed_at: Optional[int]) -> None:
        miss = DeadlineMiss(st.task, st.index, st.deadline, completed_at)
        self.stats.misses.append(miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(miss)

    def _assign_processors(self, now: int, scheduled: List[Subtask],
                           capacity: int) -> List[Tuple[int, Subtask]]:
        """Map this slot's subtasks to processors, preserving affinity."""
        if not self.preserve_affinity:
            return list(zip(range(capacity), scheduled))
        taken = [False] * capacity
        get = self.stats.per_task.get  # read-only: entries are created
        prev = now - 1                 # by on_scheduled
        # Pass 1: continuations keep their processor (no preemption at
        # all); everyone else remembers the processor they last ran on.
        assignment: List[Tuple[Optional[int], Optional[int], Subtask]] = []
        for st in scheduled:
            ts = get(st.task.task_id)
            if ts is None or ts.last_proc is None or ts.last_proc >= capacity:
                assignment.append((None, None, st))
                continue
            last = ts.last_proc
            if ts.last_slot == prev and not taken[last]:
                taken[last] = True
                assignment.append((last, None, st))
            else:
                assignment.append((None, last, st))
        # Pass 2: everyone else prefers their last processor, else the
        # lowest-numbered free one.
        lowest = 0
        out: List[Tuple[int, Subtask]] = []
        for proc, last, st in assignment:
            if proc is None:
                if last is not None and not taken[last]:
                    proc = last
                else:
                    while taken[lowest]:
                        lowest += 1
                    proc = lowest
                taken[proc] = True
            out.append((proc, st))
        return out

    # -- main loop -----------------------------------------------------------

    def run(self, horizon: int) -> SimResult:
        """Simulate slots ``0 .. horizon-1`` and return the result.

        Subtasks still unscheduled at the horizon whose deadlines fall
        within it are counted as deadline misses with no completion time.
        """
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        for now in range(horizon):
            self.step(now)
        return self.finalize(horizon)

    def finalize(self, horizon: int) -> SimResult:
        """Close out a run that was driven with :meth:`step` up to
        ``horizon`` slots: sweep unfinished subtasks for deadline misses
        and package the :class:`SimResult`."""
        self.stats.slots = horizon
        # Unfinished subtasks with expired deadlines are misses too (unless
        # the task left the system before generating them).  Canonical
        # order: priority-key order (with a task-id/index tail for
        # policies whose key is not total) — every simulator tier emits
        # end-of-run misses in exactly this order, and the differential
        # suite asserts it.
        leftovers = [st for _, _, st in list(self._pending) + list(self._ready)
                     if not (st.task.last_subtask is not None
                             and st.index > st.task.last_subtask)]
        leftovers.sort(
            key=lambda st: (self.policy.key(st), st.task.task_id, st.index))
        for st in leftovers:
            if st.deadline <= horizon:
                self._record_miss(st, None)
        return SimResult(
            stats=self.stats,
            trace=self.trace,
            horizon=horizon,
            processors=self.processors,
            policy_name=self.policy.name,
            tasks=self.tasks,
        )

    def step(self, now: int) -> List[Tuple[int, Subtask]]:
        """Advance one slot; returns the (processor, subtask) allocations."""
        arrivals = self._arrivals
        if self._stalled or (arrivals and arrivals[0][0] <= now):
            self._drain_arrivals(now)
        heappush, heappop = heapq.heappush, heapq.heappop
        pending, ready = self._pending, self._ready
        key = self.policy.key
        seq = self._seq
        while pending and pending[0][0] <= now:
            st = heappop(pending)[2]
            seq += 1
            heappush(ready, (key(st), seq, st))
        capacity = self.processors
        if self.capacity_fn is not None:
            capacity = min(self.capacity_fn(now), self.processors)
        scheduled: List[Subtask] = []
        while ready and len(scheduled) < capacity:
            st = heappop(ready)[2]
            last = st.task.last_subtask
            if last is not None and st.index > last:
                continue  # task left the system; drop lazily
            scheduled.append(st)
        placed = self._assign_processors(now, scheduled, max(capacity, 1))
        stats = self.stats
        last_index = self.last_scheduled_index
        trace = self.trace
        early = self.early_release
        nxt = now + 1
        for proc, st in placed:
            if now >= st.deadline:
                self._seq = seq  # on_miss='raise' ends the step here
                self._record_miss(st, nxt)
            task = st.task
            tid = task.task_id
            index = st.index
            execution = task.execution
            stats.stats_for(task).on_scheduled(
                now, proc, (index - 1) // execution + 1)
            last_index[tid] = index
            if trace is not None:
                trace.record(now, proc, task, index)
            # Activate the successor.  ERfair early releasing — enabled
            # scheduler-wide or on this task (mixed Pfair/ERfair systems
            # set it per task) — makes it eligible the moment its
            # predecessor completes, unless it starts a new job.
            succ = task.subtask(index + 1)
            if succ is None:
                # Arrival unknown (sporadic/IS) or the task has left.
                last = task.last_subtask
                if last is None or index < last:
                    self._stalled[tid] = _Stalled(task, index + 1, nxt)
                continue
            seq += 1
            if (early or task.early_release) and index % execution:
                heappush(pending, (nxt, seq, succ))
            else:
                elig = succ.eligible
                heappush(pending, (elig if elig > nxt else nxt, seq, succ))
        self._seq = seq
        stats.busy_quanta += len(placed)
        stats.idle_quanta += max(capacity, 0) - len(placed)
        return placed
