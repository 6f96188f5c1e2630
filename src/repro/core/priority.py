"""Priority policies for the known Pfair scheduling algorithms.

All of PF, PD, and PD² prioritise subtasks on an earliest-pseudo-deadline-
first basis and differ only in how they break deadline ties (paper, Sec. 2).
A policy maps a :class:`~repro.core.task.Subtask` to a *key*; the simulator
keeps its ready queue as a binary heap of keys, so smaller key == higher
priority.  All keys are totally ordered (final components are the task id
and subtask index), which both makes heaps happy and makes every run
deterministic for a given task-id assignment.

* :class:`PD2Priority` — the paper's subject.  Ties on the deadline are
  broken first by the b-bit (1 beats 0: executing ``T_i`` early when its
  window overlaps ``T_{i+1}``'s leaves more slots for the successor) and
  then by the *group deadline* (later beats earlier: a subtask heading a
  longer cascade of length-2 windows is more urgent).  Remaining ties may
  be broken arbitrarily — PD²'s optimality theorem is stated for arbitrary
  resolution, so the deterministic (task_id, index) tail is safe.
* :class:`PDPriority` — Baruah, Gehrke & Plaxton's PD uses the same first
  tie-breaks and then two further parameters.  Because *any* refinement of
  the PD² order is itself an optimal PD² instance, we implement PD as PD²
  plus two documented extra tie-breaks (heaviness, then larger weight);
  this is faithful in spirit — PD²'s contribution was precisely the proof
  that PD's extra tie-breaks are unnecessary — while remaining optimal.
* :class:`PFPriority` — Baruah et al.'s original PF compares, after the
  deadline, the lexicographic string of b-bits ``b(T_i), b(T_{i+1}), ...``
  (larger string wins).  The comparison is lazy and terminates at the first
  0 bit (at a job boundary at the latest), but is inherently
  comparison-based, so its key is a comparator object rather than a tuple.
* :class:`EPDFPriority` — earliest-pseudo-deadline-first with *no*
  tie-breaks.  Not optimal on more than two processors; included as the
  ablation baseline showing that the tie-breaks are what make PD² work.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .subtask import b_bit, pseudo_deadline, pseudo_release
from .task import Subtask

__all__ = [
    "PD2Priority",
    "PDPriority",
    "PFPriority",
    "EPDFPriority",
    "PriorityPolicy",
]


class PriorityPolicy:
    """Base class; subclasses implement :meth:`key`."""

    #: Human-readable algorithm name (used in traces and reports).
    name = "base"

    def key(self, subtask: Subtask) -> object:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PD2Priority(PriorityPolicy):
    """PD²: (deadline, b-bit 1 first, later group deadline first)."""

    name = "PD2"

    def key(self, subtask: Subtask) -> Tuple[int, int, int, int, int]:
        return (
            subtask.deadline,
            1 - subtask.b_bit,
            -subtask.group_deadline,
            subtask.task.task_id,
            subtask.index,
        )


class PDPriority(PriorityPolicy):
    """PD: PD²'s order refined by heaviness then larger weight.

    See the module docstring: the historical PD tie-break chain starts with
    exactly PD²'s comparisons, and refining beyond them cannot break
    optimality, so this is a correct optimal PD-family scheduler.
    """

    name = "PD"

    def key(self, subtask: Subtask) -> Tuple[int, int, int, int, int, int, int]:
        w = subtask.task.weight
        return (
            subtask.deadline,
            1 - subtask.b_bit,
            -subtask.group_deadline,
            0 if w.is_heavy() else 1,
            # Larger weight first, compared on a fixed 10^9 grid.  Distinct
            # weights closer than 1e-9 may collide, but this tie-break sits
            # below PD²'s (already optimality-sufficient) comparisons, so a
            # collision only falls through to the deterministic task id.
            -(w.num * 10**9) // w.den,
            subtask.task.task_id,
        )


class EPDFPriority(PriorityPolicy):
    """Earliest pseudo-deadline first, ties by task id (no Pfair tie-breaks)."""

    name = "EPDF"

    def key(self, subtask: Subtask) -> Tuple[int, int, int]:
        return (subtask.deadline, subtask.task.task_id, subtask.index)


class _PFKey:
    """Comparator implementing PF's lazy lexicographic b-bit comparison.

    ``a < b`` means ``a`` has *higher* priority.  After comparing deadlines,
    PF walks successor subtasks: at each step the subtask with b-bit 1
    beats the one with b-bit 0; if both bits are 1 the comparison recurses
    on the successors' deadlines; if both are 0 the tie is broken
    arbitrarily (here: task id).  The walk is bounded because every task's
    b-bit is 0 at its job boundary.
    """

    __slots__ = ("subtask",)

    def __init__(self, subtask: Subtask) -> None:
        self.subtask = subtask

    def _bits(self) -> "Iterator[Tuple[int, int]]":
        """Yield (deadline, b-bit) for this subtask and its successors.

        Successor parameters use the periodic pattern shifted by the
        current subtask's IS offset: PF is defined for periodic tasks, and
        for IS tasks we compare as if no further delays occur (documented
        approximation — future offsets are unknowable online anyway).
        """
        st = self.subtask
        e, p = st.task.execution, st.task.period
        theta = st.release - pseudo_release(e, p, st.index)
        i = st.index
        while True:
            yield pseudo_deadline(e, p, i) + theta, b_bit(e, p, i)
            i += 1

    def __lt__(self, other: "_PFKey") -> bool:
        a, b = self.subtask, other.subtask
        for (da, ba), (db, bb) in zip(self._bits(), other._bits()):
            if da != db:
                return da < db
            if ba != bb:
                return ba > bb  # b-bit 1 wins
            if ba == 0:  # both 0: arbitrary, deterministic tie-break
                return (a.task.task_id, a.index) < (b.task.task_id, b.index)
            # both 1: continue with successors
        raise AssertionError("unreachable: b-bit walk terminates at job boundary")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _PFKey):
            return NotImplemented
        a, b = self.subtask, other.subtask
        return a.task.task_id == b.task.task_id and a.index == b.index

    def __repr__(self) -> str:
        return f"_PFKey({self.subtask!r})"


class PFPriority(PriorityPolicy):
    """PF: earliest deadline, ties by lazy lexicographic b-bit strings."""

    name = "PF"

    def key(self, subtask: Subtask) -> _PFKey:
        return _PFKey(subtask)
