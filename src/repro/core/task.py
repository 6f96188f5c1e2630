"""Task models: periodic, sporadic, and intra-sporadic (IS) Pfair tasks.

The paper's task hierarchy, most general last:

* **Periodic** — an infinite sequence of identical jobs released every
  ``p`` slots (synchronous when the phase is 0).  Each job of execution
  cost ``e`` contributes ``e`` quantum-length subtasks whose windows are
  given by :mod:`repro.core.subtask`.
* **Sporadic** — the period is a *minimum* separation between job
  releases; a job released late shifts all of its subtasks' windows right
  by the same amount.
* **Intra-sporadic (IS)** — sporadic separation is allowed *within* a job:
  each individual subtask ``T_i`` may be shifted right by an offset
  ``theta(T_i)``, with offsets nondecreasing in ``i``.  This models e.g.
  packets of one flow arriving late or in bursts (paper, Sec. 2).  An early
  packet is handled by letting the subtask become *eligible* before its
  Pfair release while its deadline stays anchored to the release.

All three expose the same interface: :meth:`PfairTask.subtask` returns the
absolute :class:`Subtask` record (eligibility, release, deadline, b-bit,
group deadline) for a 1-based index, and the simulator is model-agnostic.

ERfair early releasing ("a subtask becomes eligible as soon as its
predecessor in the same job completes") is *dynamic* — it depends on the
schedule — so the mechanism lives in the scheduler
(:class:`repro.core.pd2.PD2Scheduler` with ``early_release=True``); tasks
only carry the per-task opt-in flag (``early_release=True`` here) used by
mixed Pfair/ERfair systems.  Static early eligibility (bursty IS
arrivals) is per-task data and lives here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence

from .rational import Weight, weight_sum
from .subtask import b_bit, group_deadline, pseudo_deadline, pseudo_release

__all__ = [
    "Subtask",
    "PfairTask",
    "PeriodicTask",
    "SporadicTask",
    "IntraSporadicTask",
    "TaskSet",
]

_task_counter = itertools.count()


class Subtask:
    """One quantum of work, with its absolute Pfair parameters.

    ``eligible <= release`` always holds; a subtask may be scheduled in any
    slot ``t`` with ``t >= eligible`` (subject to its predecessor having
    been scheduled), but its *priority* is determined by ``release``,
    ``deadline``, ``b_bit`` and ``group_deadline``.
    """

    __slots__ = ("task", "index", "eligible", "release", "deadline", "b_bit",
                 "group_deadline")

    def __init__(self, task: "PfairTask", index: int, eligible: int,
                 release: int, deadline: int, b_bit: int,
                 group_deadline: int) -> None:
        self.task = task
        self.index = index
        self.eligible = eligible
        self.release = release
        self.deadline = deadline
        self.b_bit = b_bit
        self.group_deadline = group_deadline

    @property
    def window(self) -> tuple:
        """The half-open interval ``[release, deadline)``."""
        return (self.release, self.deadline)

    @property
    def job_index(self) -> int:
        """1-based index of the job this subtask belongs to."""
        return (self.index - 1) // self.task.execution + 1

    def is_last_of_job(self) -> bool:
        return self.index % self.task.execution == 0

    def __repr__(self) -> str:
        return (f"Subtask({self.task.name}[{self.index}] "
                f"w=[{self.release},{self.deadline}) b={self.b_bit} "
                f"D={self.group_deadline})")


class PfairTask:
    """Base class: a recurrent task with integer weight ``e/p`` in quanta.

    Subclasses control how subtask windows are placed in absolute time via
    :meth:`_offset` (the IS ``theta``) and :meth:`_eligible`.
    """

    def __init__(self, execution: int, period: int, *, name: Optional[str] = None,
                 task_id: Optional[int] = None,
                 early_release: bool = False) -> None:
        self.weight = Weight.of_task(execution, period)
        self.execution = execution
        self.period = period
        #: Per-task ERfair flag: this task's subtasks become eligible as
        #: soon as their same-job predecessor completes, even if the
        #: scheduler-wide flag is off.  Mixed Pfair/ERfair systems
        #: (Anderson & Srinivasan 2001, cited by the paper) set this on a
        #: subset of tasks; optimality is preserved.
        self.early_release = early_release
        self.task_id = next(_task_counter) if task_id is None else task_id
        self.name = name if name is not None else f"T{self.task_id}"
        #: When set, the task generates no subtasks beyond this index — how a
        #: dynamic *leave* (see :mod:`repro.core.dynamic`) truncates the
        #: stream.  ``None`` means the stream is infinite.
        self.last_subtask: Optional[int] = None

    # -- model-specific hooks ----------------------------------------------

    def _offset(self, index: int) -> Optional[int]:
        """IS offset ``theta(T_index)``; ``None`` if not yet known
        (e.g. a sporadic job that has not arrived)."""
        return 0

    def _eligible(self, index: int, release: int) -> int:
        """Static eligibility time (``<= release``)."""
        return release

    # -- public API ----------------------------------------------------------

    def subtask(self, index: int) -> Optional[Subtask]:
        """Absolute parameters of subtask ``index`` (1-based), or ``None``
        if its arrival is not yet determined or the task has left."""
        if self.last_subtask is not None and index > self.last_subtask:
            return None
        theta = self._offset(index)
        if theta is None:
            return None
        e, p = self.execution, self.period
        release = pseudo_release(e, p, index) + theta
        gd = group_deadline(e, p, index)
        return Subtask(
            task=self,
            index=index,
            eligible=self._eligible(index, release),
            release=release,
            deadline=pseudo_deadline(e, p, index) + theta,
            b_bit=b_bit(e, p, index),
            group_deadline=gd + theta if gd else 0,
        )

    def subtasks_until(self, horizon: int) -> Iterable[Subtask]:
        """Yield subtasks in index order while ``release < horizon``."""
        i = 1
        while True:
            st = self.subtask(i)
            if st is None or st.release >= horizon:
                return
            yield st
            i += 1

    def is_light(self) -> bool:
        """True iff the weight is below 1/2 (paper, Sec. 2)."""
        return self.weight.is_light()

    def is_heavy(self) -> bool:
        """True iff the weight is at least 1/2 (paper, Sec. 2)."""
        return self.weight.is_heavy()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, {self.execution}/{self.period})"


class PeriodicTask(PfairTask):
    """Synchronous (phase 0) or asynchronous periodic task."""

    def __init__(self, execution: int, period: int, *, phase: int = 0,
                 name: Optional[str] = None, task_id: Optional[int] = None,
                 early_release: bool = False) -> None:
        super().__init__(execution, period, name=name, task_id=task_id,
                         early_release=early_release)
        if phase < 0:
            raise ValueError(f"phase must be nonnegative, got {phase}")
        self.phase = phase
        # Per-task constants of the closed-form group deadline (see
        # repro.core.subtask), hoisted out of the per-allocation call.
        self._heavy = 2 * execution >= period
        self._slack = period - execution

    def _offset(self, index: int) -> int:
        return self.phase

    def subtask(self, index: int) -> Optional[Subtask]:
        # PfairTask.subtask with the hooks folded in (the offset is the
        # phase, eligibility is the release) and the closed forms of
        # repro.core.subtask inlined: the simulator calls this once per
        # allocation.  A subclass that overrides _offset or _eligible
        # must override this too.
        last = self.last_subtask
        if last is not None and index > last:
            return None
        if index < 1:
            raise ValueError(f"subtask indices are 1-based, got {index}")
        e = self.execution
        p = self.period
        phase = self.phase
        ip = index * p
        d = (ip + e - 1) // e
        if self._heavy:
            s = self._slack
            gd = (((d * s + p - 1) // p * p + s - 1) // s if s else d) + phase
        else:
            gd = 0
        release = (ip - p) // e + phase
        return Subtask(self, index, release, release, d + phase,
                       1 if ip % e else 0, gd)


class SporadicTask(PfairTask):
    """Job releases separated by *at least* the period.

    ``job_releases`` lists the absolute release times of jobs 1, 2, ...;
    consecutive entries must differ by at least ``period``.  Subtasks of
    jobs beyond the supplied list are unknown (``subtask`` returns
    ``None``) until :meth:`release_job` records their arrival — this is how
    an online simulation feeds arrivals in.
    """

    def __init__(self, execution: int, period: int,
                 job_releases: Sequence[int] = (), *,
                 name: Optional[str] = None, task_id: Optional[int] = None,
                 early_release: bool = False) -> None:
        super().__init__(execution, period, name=name, task_id=task_id,
                         early_release=early_release)
        self.job_releases: List[int] = []
        for r in job_releases:
            self.release_job(r)

    def release_job(self, time: int) -> int:
        """Record the arrival of the next job at ``time``; returns its
        1-based job index."""
        if self.job_releases:
            min_next = self.job_releases[-1] + self.period
            if time < min_next:
                raise ValueError(
                    f"{self.name}: sporadic separation violated — job at {time} "
                    f"but previous job at {self.job_releases[-1]} implies >= {min_next}"
                )
        elif time < 0:
            raise ValueError(f"release time must be nonnegative, got {time}")
        self.job_releases.append(time)
        return len(self.job_releases)

    def _offset(self, index: int) -> Optional[int]:
        job = (index - 1) // self.execution  # 0-based job index
        if job >= len(self.job_releases):
            return None
        # theta = actual release minus the synchronous-periodic release.
        return self.job_releases[job] - job * self.period


class IntraSporadicTask(PfairTask):
    """IS task: per-subtask offsets ``theta(T_i)``, nondecreasing.

    ``offsets[i-1]`` is ``theta(T_i)``.  Subtasks beyond the supplied list
    are unknown until :meth:`arrive` appends more.  Optional
    ``eligible_times`` (absolute, per subtask) allow *early* arrivals:
    ``eligible_times[i-1] <= r(T_i)`` makes subtask ``i`` schedulable
    before its window opens while its deadline stays put — the paper's
    treatment of bursty packet arrivals.
    """

    def __init__(self, execution: int, period: int,
                 offsets: Sequence[int] = (), *,
                 eligible_times: Optional[Sequence[int]] = None,
                 name: Optional[str] = None, task_id: Optional[int] = None,
                 early_release: bool = False) -> None:
        super().__init__(execution, period, name=name, task_id=task_id,
                         early_release=early_release)
        self.offsets: List[int] = []
        self.eligible_times: List[Optional[int]] = []
        for k, theta in enumerate(offsets):
            elig = None
            if eligible_times is not None and k < len(eligible_times):
                elig = eligible_times[k]
            self.arrive(theta, eligible=elig)

    def arrive(self, theta: int, *, eligible: Optional[int] = None) -> int:
        """Record the arrival of the next subtask with offset ``theta``;
        returns its 1-based index."""
        if theta < 0:
            raise ValueError(f"IS offsets must be nonnegative, got {theta}")
        if self.offsets and theta < self.offsets[-1]:
            raise ValueError(
                f"{self.name}: IS offsets must be nondecreasing "
                f"({theta} after {self.offsets[-1]})"
            )
        index = len(self.offsets) + 1
        release = pseudo_release(self.execution, self.period, index) + theta
        if eligible is not None and eligible > release:
            raise ValueError(
                f"{self.name}: eligibility {eligible} after release {release}"
            )
        self.offsets.append(theta)
        self.eligible_times.append(eligible)
        return index

    def _offset(self, index: int) -> Optional[int]:
        if index > len(self.offsets):
            return None
        return self.offsets[index - 1]

    def _eligible(self, index: int, release: int) -> int:
        elig = self.eligible_times[index - 1]
        return release if elig is None else elig


class TaskSet:
    """An ordered collection of Pfair tasks with exact feasibility checks."""

    def __init__(self, tasks: Iterable[PfairTask] = ()) -> None:
        self.tasks: List[PfairTask] = list(tasks)

    def add(self, task: PfairTask) -> None:
        """Append a task to the set."""
        self.tasks.append(task)

    def total_weight(self) -> Weight:
        """Exact summed weight of all tasks."""
        return weight_sum(t.weight for t in self.tasks)

    def is_feasible(self, processors: int) -> bool:
        """Eq. (2) of the paper: feasible on M processors iff
        ``sum wt(T) <= M`` (exact)."""
        if processors < 1:
            raise ValueError("need at least one processor")
        return self.total_weight() <= processors

    def min_processors(self) -> int:
        """Smallest M on which the set is Pfair-feasible (no overheads)."""
        return max(1, self.total_weight().ceil())

    def hyperperiod(self) -> int:
        """LCM of periods — one full cycle of a synchronous periodic set."""
        from math import lcm

        if not self.tasks:
            return 1
        return lcm(*(t.period for t in self.tasks))

    def __iter__(self) -> "Iterator[PfairTask]":
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, i: int) -> PfairTask:
        return self.tasks[i]

    def __repr__(self) -> str:
        return f"TaskSet({len(self.tasks)} tasks, U={self.total_weight()})"
