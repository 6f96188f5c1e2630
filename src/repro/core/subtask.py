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

Every parameter has a closed form in exact integer arithmetic on
``(e, p, i)``, so a task keeps no per-subtask state::

    r(T_i) = (i-1)*p // e
    d(T_i) = ceil(i*p / e)
    b(T_i) = 1  iff  i*p mod e != 0
    D(T_i) = ceil(ceil(d*(p-e)/p) * p/(p-e))   heavy, e < p
           = d(T_i)                            e = p
           = 0                                 light (2e < p)

The test suite checks the group deadline's closed form against the
cascade walk of the definition.
"""

from __future__ import annotations

__all__ = [
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

    For a heavy task (``2e >= p``) with ``e < p`` it is
    ``ceil(ceil(d*(p-e)/p) * p/(p-e))`` with ``d = d(T_i)``: a fluid
    task of the complementary weight ``(p-e)/p`` completes its ``k``-th
    quantum at ``k*p/(p-e)``, and ``D`` is the first such time at or after
    ``d``, rounded up to a slot.  It equals the first cascade candidate of
    the definition (the walk in the test suite is the oracle).  A weight-1
    task's windows are single slots, so ``D(T_i) = d(T_i)``.

    Light tasks (weight < 1/2) have no length-2 windows, so no cascades can
    form; by convention their group deadline is 0 (ties among them are
    broken arbitrarily by PD²).
    """
    _check(execution, period, index)
    if 2 * execution < period:  # light task
        return 0
    d = (index * period + execution - 1) // execution
    slack = period - execution
    if slack == 0:
        return d
    return ((d * slack + period - 1) // period * period + slack - 1) // slack


def _check(execution: int, period: int, index: int) -> None:
    if execution <= 0 or period <= 0 or execution > period:
        raise ValueError(
            f"invalid weight {execution}/{period}: need 0 < e <= p in integer quanta"
        )
    if index < 1:
        raise ValueError(f"subtask indices are 1-based, got {index}")
