"""Subtask parameters: pseudo-releases, pseudo-deadlines, b-bits, group deadlines.

Under Pfair scheduling a task ``T`` of weight ``wt(T) = e/p`` is divided into
an infinite sequence of quantum-length *subtasks* ``T_1, T_2, ...``.  The
paper (Sec. 2) defines, for subtask ``T_i`` (``i >= 1``)::

    r(T_i) = floor((i-1) / wt(T))        pseudo-release
    d(T_i) = ceil(i / wt(T))             pseudo-deadline
    w(T_i) = [r(T_i), d(T_i))            window

``T_i`` must be scheduled within its window or the Pfair lag bound
``-1 < lag < 1`` is violated.  The PD² tie-break parameters are:

* the *b-bit* ``b(T_i)``: 1 iff ``T_i``'s window overlaps ``T_{i+1}``'s
  (consecutive windows overlap by one slot or are disjoint);
* the *group deadline* ``D(T_i)``: the earliest time by which a cascade of
  forced allocations through length-2 windows must end — the earliest
  ``t >= d(T_i)`` such that for some subtask ``T_k`` either
  ``t = d(T_k) and b(T_k) = 0`` or ``t + 1 = d(T_k) and |w(T_k)| = 3``.

Everything here is exact integer arithmetic on the pair ``(e, p)``:

    r(T_i) = (i-1)*p // e
    d(T_i) = ceil(i*p / e) = (i*p + e - 1) // e
    b(T_i) = 1  iff  i*p mod e != 0

All four parameters are periodic in the subtask index with period ``e``
(shifting the index by ``e`` shifts times by ``p``), so :class:`WindowTable`
precomputes one job's worth of parameters and answers queries for any index
in O(1).  This memoisation is what keeps the PD² simulator's per-slot cost
at O(M log N) instead of recomputing group deadlines by walking cascades.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple

__all__ = [
    "SubtaskParams",
    "WindowTable",
    "WINDOW_TABLE_CACHE_SIZE",
    "window_table",
    "pseudo_release",
    "pseudo_deadline",
    "b_bit",
    "window_length",
    "group_deadline",
]


def pseudo_release(execution: int, period: int, index: int) -> int:
    """``r(T_i) = floor((i-1)*p/e)`` for 1-based subtask ``index``."""
    _check(execution, period, index)
    return (index - 1) * period // execution


def pseudo_deadline(execution: int, period: int, index: int) -> int:
    """``d(T_i) = ceil(i*p/e)`` for 1-based subtask ``index``."""
    _check(execution, period, index)
    return (index * period + execution - 1) // execution


def b_bit(execution: int, period: int, index: int) -> int:
    """``b(T_i)``: 1 iff ``T_i``'s window overlaps ``T_{i+1}``'s.

    The windows overlap iff ``r(T_{i+1}) = d(T_i) - 1``, which holds iff
    ``i*p`` is not a multiple of ``e``.
    """
    _check(execution, period, index)
    return 1 if (index * period) % execution != 0 else 0


def window_length(execution: int, period: int, index: int) -> int:
    """``|w(T_i)| = d(T_i) - r(T_i)``."""
    return pseudo_deadline(execution, period, index) - pseudo_release(
        execution, period, index
    )


def group_deadline(execution: int, period: int, index: int) -> int:
    """``D(T_i)`` — the paper's group deadline, 0 for light tasks.

    For a heavy task (``2e >= p``) the value is found by walking subtasks
    ``k = i, i+1, ...`` and returning the first *candidate* time at or after
    ``d(T_i)``, where subtask ``T_k`` contributes candidate ``d(T_k)`` when
    ``b(T_k) = 0`` and candidate ``d(T_k) - 1`` when ``|w(T_k)| = 3``.
    Candidates are nondecreasing in ``k`` so the first hit is the minimum.
    The walk always terminates: at a job boundary (``e | k``) the b-bit is 0.

    Light tasks (weight < 1/2) have no length-2 windows, so no cascades can
    form; by convention their group deadline is 0 (ties among them are
    broken arbitrarily by PD²).
    """
    _check(execution, period, index)
    if 2 * execution < period:  # light task
        return 0
    d_i = pseudo_deadline(execution, period, index)
    k = index
    while True:
        d_k = pseudo_deadline(execution, period, k)
        if window_length(execution, period, k) == 3 and d_k - 1 >= d_i:
            return d_k - 1
        if b_bit(execution, period, k) == 0 and d_k >= d_i:
            return d_k
        k += 1


def _check(execution: int, period: int, index: int) -> None:
    if execution <= 0 or period <= 0 or execution > period:
        raise ValueError(
            f"invalid weight {execution}/{period}: need 0 < e <= p in integer quanta"
        )
    if index < 1:
        raise ValueError(f"subtask indices are 1-based, got {index}")


class SubtaskParams(NamedTuple):
    """All PD²-relevant parameters of one subtask, in absolute slots."""

    release: int
    deadline: int
    b_bit: int
    group_deadline: int

    @property
    def window_length(self) -> int:
        return self.deadline - self.release


class WindowTable:
    """Memoised subtask parameters for a weight ``e/p``.

    One job's worth (indices ``1..e``) of ``(r, d, b, D)`` is computed once,
    in O(e); parameters for subtask ``i = q*e + j`` are the job-1
    parameters shifted by ``q*p`` slots (b-bits are unshifted).  Obtain
    instances through :func:`window_table`, which caches the most recently
    used weights, and share them through :attr:`PfairTask.table
    <repro.core.task.PfairTask.table>`: every task holds its own table.
    """

    __slots__ = ("execution", "period", "releases", "deadlines", "b_bits",
                 "group_deadlines")

    def __init__(self, execution: int, period: int) -> None:
        _check(execution, period, 1)
        self.execution = execution
        self.period = period
        e, p = execution, period
        #: Job 1's columns, entry ``j`` for subtask ``j + 1``.  Read them
        #: directly on hot paths; never mutate them (tables are shared).
        self.releases: List[int] = [(i - 1) * p // e for i in range(1, e + 1)]
        self.deadlines: List[int] = [(i * p + e - 1) // e
                                     for i in range(1, e + 1)]
        self.b_bits: List[int] = [1 if (i * p) % e != 0 else 0
                                  for i in range(1, e + 1)]
        self.group_deadlines: List[int] = [0] * e  # light: 0 by convention
        if 2 * e < p:
            return
        # One backward sweep instead of a group_deadline() walk per
        # subtask.  The walk from T_j stops at d_j when b_j = 0; else it
        # returns the first candidate of a later subtask, which lies in
        # the same job (b_e = 0) and past d_j.  ``carry`` is that
        # candidate: d_k - 1 if |w_k| = 3, else d_k if b_k = 0, else
        # the one after k.
        gds, releases = self.group_deadlines, self.releases
        deadlines, b_bits = self.deadlines, self.b_bits
        carry = 0
        for j in range(e - 1, -1, -1):
            d = deadlines[j]
            if b_bits[j]:
                gds[j] = carry
            else:
                gds[j] = carry = d
            if d - releases[j] == 3:
                carry = d - 1

    def _split(self, index: int) -> tuple:
        if index < 1:
            raise ValueError(f"subtask indices are 1-based, got {index}")
        q, j = divmod(index - 1, self.execution)
        return q, j

    def release(self, index: int) -> int:
        q, j = self._split(index)
        return self.releases[j] + q * self.period

    def deadline(self, index: int) -> int:
        q, j = self._split(index)
        return self.deadlines[j] + q * self.period

    def b_bit(self, index: int) -> int:
        _, j = self._split(index)
        return self.b_bits[j]

    def group_deadline(self, index: int) -> int:
        q, j = self._split(index)
        gd = self.group_deadlines[j]
        return gd + q * self.period if gd else 0

    def window_length(self, index: int) -> int:
        _, j = self._split(index)
        return self.deadlines[j] - self.releases[j]

    def params(self, index: int) -> SubtaskParams:
        q, j = self._split(index)
        shift = q * self.period
        gd = self.group_deadlines[j]
        return SubtaskParams(
            release=self.releases[j] + shift,
            deadline=self.deadlines[j] + shift,
            b_bit=self.b_bits[j],
            group_deadline=gd + shift if gd else 0,
        )

    def __repr__(self) -> str:
        return f"WindowTable({self.execution}/{self.period})"


#: Tables :func:`window_table` keeps, least recently used evicted first.
#: Tasks hold their own table, so eviction never changes a live task; it
#: only bounds the tables a long-lived process keeps for weights it no
#: longer runs.
WINDOW_TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=WINDOW_TABLE_CACHE_SIZE)
def window_table(execution: int, period: int) -> WindowTable:
    """Shared, cached :class:`WindowTable` for the weight ``e/p``.

    ``(e, p)`` is *not* reduced to lowest terms: a task with ``e=4, p=6``
    has a different window pattern within its period-6 job than one with
    ``e=2, p=3`` has across two jobs only at job boundaries — the Pfair
    window formulas depend only on the ratio, so the tables coincide, but
    job-boundary bookkeeping (e.g. job indices for ERfair eligibility)
    depends on the unreduced pair.  Caching unreduced keys keeps both
    correct and costs a few duplicate tables at most.
    """
    return WindowTable(execution, period)
