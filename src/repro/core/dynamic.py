"""Dynamic task systems: joins, leaves, and reweighting under PD².

Srinivasan & Anderson derived conditions under which intra-sporadic tasks
may join and leave a running Pfair-scheduled system without causing missed
deadlines (paper, Sec. 2, "Dynamic task systems"):

* **Join** — a task may join whenever the feasibility condition Eq. (2),
  ``sum of weights <= M``, continues to hold.
* **Leave** — a departing task's weight cannot be freed immediately: a task
  that ran *ahead* of its fluid rate (negative lag) could otherwise leave
  and immediately rejoin, effectively executing above its weight.  A light
  task may leave at or after ``d(T_i) + b(T_i)``, a heavy task after its
  next group deadline, where ``T_i`` is its last-scheduled subtask.  A task
  that never ran since joining has nonnegative lag and may leave at once.

:class:`DynamicPfairSystem` wraps the quantum simulator with this admission
control and exposes ``try_join`` / ``request_leave`` / ``reweight``.  Task
*reweighting* (the paper's virtual-reality rendering example, Sec. 5.2) is
modelled exactly as the paper says: the task with the old weight leaves and
a task with the new weight joins as soon as both the departure has taken
effect and capacity allows.

The system's state is O(1) per task ever admitted, however long it runs:
the Eq. (2) sum is kept as a running total (departures are applied when
they take effect, from a heap), and a job's preemption count is dropped
from the simulator's per-task stats once the job completes.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .quantum import QuantumSimulator, SimResult
from .priority import PriorityPolicy
from .rational import Weight
from .task import PeriodicTask, PfairTask

__all__ = ["AdmissionError", "DynamicPfairSystem", "earliest_leave_time"]


class AdmissionError(Exception):
    """A join would violate the feasibility condition Eq. (2)."""


def earliest_leave_time(task: PfairTask, last_scheduled: int, now: int) -> int:
    """Earliest slot at which ``task`` may depart, per the paper's rules.

    ``last_scheduled`` is the index of the task's last-scheduled subtask
    (0 if it never ran, in which case its lag is nonnegative and it may
    leave immediately).
    """
    if last_scheduled <= 0:
        return now
    st = task.table  # pattern parameters; IS offsets only delay, never hasten
    # Use the task's *actual* subtask record so IS offsets are honoured.
    sub = task.subtask(last_scheduled)
    if sub is None:  # stream already truncated at/below this index
        d = st.deadline(last_scheduled)
        b = st.b_bit(last_scheduled)
        gd = st.group_deadline(last_scheduled)
    else:
        d, b, gd = sub.deadline, sub.b_bit, sub.group_deadline
    if task.weight.is_heavy():
        return max(now, gd)
    return max(now, d + b)


class DynamicPfairSystem:
    """A running PD²-scheduled system that tasks may join and leave.

    Drive it with :meth:`advance` (slot by slot) or :meth:`run_until`;
    interleave :meth:`try_join` / :meth:`request_leave` calls at slot
    boundaries.  The admission invariant maintained is exact: the summed
    weight of all tasks whose departure has not yet taken effect never
    exceeds the processor count.

    The simulator's per-task stats keep every counter, but a task's
    ``job_preemptions`` holds only jobs that have not completed: a
    long-running system's state grows with the tasks admitted, not with
    elapsed time.
    """

    def __init__(self, processors: int, *, policy: Optional[PriorityPolicy] = None,
                 early_release: bool = False, trace: bool = False,
                 on_miss: str = "record") -> None:
        self.processors = processors
        self.sim = QuantumSimulator(
            [], processors, policy, early_release=early_release,
            trace=trace, on_miss=on_miss,
        )
        self.now = 0
        self._weights: Dict[int, Weight] = {}
        #: tid -> slot at which the departure takes effect (weight freed).
        self._departures: Dict[int, int] = {}
        self._tasks: Dict[int, PfairTask] = {}
        self._pending_joins: List[Tuple[int, PfairTask]] = []
        #: Exact summed weight of the tasks in ``_weights`` whose departure
        #: has not taken effect (``dep is None or dep > now``).
        self._committed = Weight.zero()
        #: (departure, tid) of requested leaves still holding capacity.
        self._leaving: List[Tuple[int, int]] = []

    # -- capacity ------------------------------------------------------------

    def committed_weight(self) -> Weight:
        """Exact summed weight of tasks still holding capacity."""
        return self._committed

    def can_admit(self, task: PfairTask) -> bool:
        return self.committed_weight() + task.weight <= self.processors

    def tasks(self) -> List[PfairTask]:
        """All tasks ever admitted (including ones whose departure is
        pending or complete), in join order."""
        return list(self._tasks.values())

    def find_task(self, task_id: int) -> Optional[PfairTask]:
        """The admitted or pending-join task with ``task_id``, or ``None``."""
        task = self._tasks.get(task_id)
        if task is not None:
            return task
        for _, pending in self._pending_joins:
            if pending.task_id == task_id:
                return pending
        return None

    def departure_time(self, task_id: int) -> Optional[int]:
        """Slot at which ``task_id``'s departure takes effect, or ``None``
        if no leave has been requested."""
        return self._departures.get(task_id)

    # -- joins / leaves --------------------------------------------------------

    def try_join(self, task: PfairTask) -> bool:
        """Admit ``task`` now if Eq. (2) allows; returns success.

        The task's first subtask must not be eligible before the current
        time (create periodic tasks with ``phase=system.now``).
        """
        if task.task_id in self._tasks:
            raise AdmissionError(f"{task.name} already joined")
        first = task.subtask(1)
        if first is not None and first.eligible < self.now:
            raise AdmissionError(
                f"{task.name} first subtask eligible at {first.eligible}, "
                f"before join time {self.now}"
            )
        if not self.can_admit(task):
            return False
        self._tasks[task.task_id] = task
        self._weights[task.task_id] = task.weight
        self._committed = self._committed + task.weight
        self.sim.add_task(task, self.now)
        return True

    def join(self, task: PfairTask) -> None:
        """Like :meth:`try_join` but raises :class:`AdmissionError` on
        insufficient capacity."""
        if not self.try_join(task):
            raise AdmissionError(
                f"admitting {task.name} (weight {task.weight}) would exceed "
                f"{self.processors} processors (committed {self.committed_weight()})"
            )

    def request_leave(self, task: PfairTask) -> int:
        """Begin ``task``'s departure; returns the slot at which its weight
        is freed.

        The task stops executing immediately (its subtask stream is
        truncated at the last-scheduled subtask), but its capacity stays
        committed until the paper's leave condition is met.

        A task whose join is still pending (queued by :meth:`reweight`)
        was never scheduled, so it may leave immediately: the queued join
        is cancelled and the departure takes effect now.

        Idempotent: a repeated request returns the first departure, for
        a cancelled join too.  Raises ``KeyError`` for a task that never
        joined and is not queued (a queued join that :meth:`advance`
        dropped for want of capacity included).
        """
        if task.task_id not in self._tasks:
            if task.task_id in self._departures:  # a cancelled join
                return self._departures[task.task_id]
            for i, (_, pending) in enumerate(self._pending_joins):
                if pending.task_id == task.task_id:
                    del self._pending_joins[i]
                    self._departures[task.task_id] = self.now
                    return self.now
            raise KeyError(f"{task.name} is not in the system")
        if task.task_id in self._departures:
            return self._departures[task.task_id]
        last = self.sim.last_scheduled_index.get(task.task_id, 0)
        departure = earliest_leave_time(task, last, self.now)
        task.last_subtask = last  # no further subtasks
        self._departures[task.task_id] = departure
        if departure <= self.now:
            self._committed = self._committed - task.weight
        else:
            heapq.heappush(self._leaving, (departure, task.task_id))
        return departure

    def reweight(self, task: PfairTask, execution: int, period: int,
                 *, name: Optional[str] = None) -> Tuple[int, PeriodicTask]:
        """Schedule a weight change: old task leaves, replacement joins.

        Returns ``(join_time, new_task)``; the new task is created with a
        phase equal to the join time and joins then (the caller keeps
        advancing the system; the join is queued internally).  The join
        time is the old task's departure, or the current slot if that
        departure has already taken effect (a task that left earlier).
        """
        join_at = max(self.request_leave(task), self.now)
        new_task = PeriodicTask(
            execution, period, phase=join_at,
            name=name or f"{task.name}'",
        )
        self._pending_joins.append((join_at, new_task))
        self._pending_joins.sort(key=lambda x: x[0])
        return join_at, new_task

    # -- time ------------------------------------------------------------------

    def advance(self, slots: int = 1) -> List[str]:
        """Advance the system by ``slots`` quanta.

        A queued reweight join that finds too little capacity at its join
        slot (later joins took the weight its predecessor freed) is
        dropped: the slot still elapses, and the join's
        :class:`AdmissionError` message is returned, one per failed join
        in the order they were tried.
        """
        failed: List[str] = []
        sim = self.sim
        per_task = sim.stats.per_task
        pending = self._pending_joins
        leaving = self._leaving
        for now in range(self.now, self.now + slots):
            while pending and pending[0][0] <= now:
                new_task = pending.pop(0)[1]
                try:
                    self.join(new_task)
                except AdmissionError as exc:
                    failed.append(str(exc))
            for _, st in sim.step(now):
                index = st.index
                execution = st.task.execution
                if index % execution == 0:  # last of its job: no later
                    # slot can preempt it, so drop its count
                    per_task[st.task.task_id].job_preemptions.pop(
                        index // execution, None)
            self.now = now + 1
            while leaving and leaving[0][0] <= now + 1:
                _, tid = heapq.heappop(leaving)
                self._committed = self._committed - self._weights[tid]
        return failed

    def run_until(self, time: int) -> None:
        if time < self.now:
            raise ValueError(f"cannot run backwards ({time} < {self.now})")
        self.advance(time - self.now)

    def finish(self) -> SimResult:
        """Close out the run and return the simulator's result."""
        return self.sim.finalize(self.now)
