"""Variable-length quanta — the paper's stated open problem (Sec. 4).

Fixed-size quanta force execution requirements to be rounded up to whole
quanta, and a job finishing early strands the rest of its quantum: the
processor idles until the next boundary.  The paper's "more flexible
approach is to allow a new quantum to begin immediately on a processor if
a task completes execution on that processor before the next quantum
boundary.  However, with this change, quanta vary in length and may no
longer align across all processors.  It is easy to show that allowing
such variable-length quanta can result in missed deadlines.  Determining
tight bounds on the extent to which deadlines might be missed remains an
interesting open problem."

This module implements that flexible scheme so the *extent* can be
measured (see ``benchmarks/bench_ext_variable_quanta.py``):

* time advances in fine ticks; the nominal quantum is ``q`` ticks;
* subtask windows stay on the slot grid (release ``r(T_i)·q``, deadline
  ``d(T_i)·q``) — the contract is unchanged, only dispatching is eager;
* each subtask actually executes ``actual(task, index) <= q`` ticks
  (the early-completion model); dispatch is non-preemptive per quantum,
  exactly like slot-based Pfair;
* whenever a processor finishes a quantum it immediately takes the
  highest-priority eligible subtask — quanta drift out of alignment.

With ``actual == q`` everywhere the schedule degenerates to an aligned
PD² schedule.  With early completions the system gains capacity but
loses the alignment PD²'s optimality proof rests on, so pseudo-deadline
misses become possible; the simulator records each miss's tardiness in
ticks so the open problem's empirical answer ("how bad?") is a number.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from ..core.priority import PD2Priority, PriorityPolicy
from ..core.task import PfairTask, Subtask
from ..core.events import EventQueue

__all__ = ["VariableQuantumResult", "VariableQuantumSimulator",
           "simulate_variable_quantum"]


@dataclass
class VariableQuantumResult:
    """Outcome of a variable-quantum run (times in ticks)."""

    horizon: int
    processors: int
    quantum: int
    completions: int = 0
    busy_ticks: int = 0
    #: (task name, subtask index, deadline tick, completion tick)
    misses: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def miss_count(self) -> int:
        return len(self.misses)

    @property
    def max_tardiness_ticks(self) -> int:
        return max((c - d for _, _, d, c in self.misses), default=0)


class VariableQuantumSimulator:
    """Eager (unaligned-quantum) dispatching of Pfair subtasks.

    ``actual(task, index)`` gives each subtask's true execution need in
    ticks (defaults to the full quantum).  Priorities come from any Pfair
    policy (default PD²) evaluated on the slot-grid subtask parameters.
    """

    def __init__(self, tasks: Iterable[PfairTask], processors: int,
                 quantum: int, *,
                 policy: Optional[PriorityPolicy] = None,
                 actual: Optional[Callable[[PfairTask, int], int]] = None
                 ) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        if quantum < 1:
            raise ValueError("quantum must be at least one tick")
        self.tasks = list(tasks)
        self.processors = processors
        self.quantum = quantum
        self.policy = policy if policy is not None else PD2Priority()
        self._actual = actual

    def _exec_ticks(self, task: PfairTask, index: int) -> int:
        if self._actual is None:
            return self.quantum
        a = self._actual(task, index)
        if not 1 <= a <= self.quantum:
            raise ValueError(
                f"actual execution {a} outside [1, quantum={self.quantum}]"
            )
        return a

    def run(self, horizon: int) -> VariableQuantumResult:
        """Simulate ``horizon`` ticks."""
        q = self.quantum
        res = VariableQuantumResult(horizon=horizon,
                                    processors=self.processors, quantum=q)
        events: EventQueue = EventQueue()
        ready: List[Tuple[object, int, Subtask]] = []
        seq = 0
        idle: List[int] = list(range(self.processors))
        heapq.heapify(idle)

        def activate(task: PfairTask, index: int, lower_bound: int) -> None:
            nonlocal seq
            st = task.subtask(index)
            if st is None:
                return
            eligible = max(st.eligible * q, lower_bound)
            events.push(eligible, ("release", st))

        for task in self.tasks:
            activate(task, 1, 0)

        while events:
            now = events.peek_time()
            if now >= horizon:
                break
            # Drain *everything* at this instant before dispatching: a
            # completion pushes its successor's release at the same tick,
            # and dispatching before that release is visible would hand the
            # processor to a lower-priority subtask non-preemptively.
            while events and events.peek_time() == now:
                for payload in events.pop_at(now):
                    kind = payload[0]
                    if kind == "complete":
                        _, proc, st = payload
                        res.completions += 1
                        deadline_tick = st.deadline * q
                        if now > deadline_tick:
                            res.misses.append(
                                (st.task.name, st.index, deadline_tick, now))
                        heapq.heappush(idle, proc)
                        activate(st.task, st.index + 1, now)
                    else:  # release
                        _, st = payload
                        seq += 1
                        heapq.heappush(ready, (self.policy.key(st), seq, st))
            # Eager dispatch: every idle processor takes the best subtask.
            while idle and ready:
                _, _, st = heapq.heappop(ready)
                proc = heapq.heappop(idle)
                ticks = self._exec_ticks(st.task, st.index)
                res.busy_ticks += ticks
                events.push(now + ticks, ("complete", proc, st))
        # Completions scheduled past the horizon are dropped (partial run).
        return res


def simulate_variable_quantum(tasks: Iterable[PfairTask], processors: int,
                              quantum: int, horizon: int, **kwargs: object
                              ) -> VariableQuantumResult:
    """One-call convenience wrapper."""
    sim = VariableQuantumSimulator(tasks, processors, quantum, **kwargs)
    return sim.run(horizon)
