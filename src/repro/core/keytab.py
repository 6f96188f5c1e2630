"""Packed PD² priority keys: the whole tie-break chain in one integer.

The reference ready queue (:class:`~repro.core.quantum.QuantumSimulator`)
is a heap of tuples ``(deadline, 1 - b, -D, task_id, index)`` built by
:meth:`~repro.core.priority.PD2Priority.key`.  This module packs the same
chain into a single integer — the canonical layout the struct-of-arrays
kernel (:mod:`repro.sim.vector`) narrows per run into int64 sort keys —
and precomputes the per-weight subtask parameter columns
(:func:`_column_base`) that kernel builds its keys from.

Layout (most significant first)::

    | deadline (unbounded) | 1-b : 1 | gd-field : 40 | task_id : 22 | index : 32 |

* ``deadline`` occupies the (unbounded) top of the integer, so it
  dominates the comparison exactly as it does in the tuple.
* the ``1-b`` bit follows: b-bit 1 beats b-bit 0.
* the group-deadline field must *reverse* the order (later group deadline
  = higher priority) inside a fixed-width field.  We exploit that the
  field is only ever compared between keys with **equal deadlines** (the
  deadline field above differs otherwise), and that a heavy subtask's
  group deadline satisfies ``D(T_i) >= d(T_i)``, to store the bounded
  difference::

      gd-field = GD_LIGHT              if D = 0   (light task: ties last)
      gd-field = GD_LIGHT - 1 - (D-d)  otherwise  (later D -> smaller field)

  Comparing gd-fields at equal ``d`` is then exactly comparing ``-D``:
  both branches of PD²'s second tie-break.  ``D - d`` is bounded by the
  period (the group-deadline walk ends at the job boundary), far below
  the 40-bit field.
* ``task_id`` and ``index`` make the order total, mirroring the tuple's
  deterministic tail.

The packed and tuple keys induce the same total order over all subtasks
whose parameters fit the fixed-width fields — the hypothesis property
test in ``tests/test_core_keytab.py`` is the load-bearing correctness
argument, and :func:`pack_key` raises rather than emit a wrong order when
a field would overflow.  Staticcheck R010 proves from this module's
constants that generator defaults stay inside every field.

Like :class:`~repro.core.subtask.WindowTable`, subtask parameters are
periodic in the subtask index: subtask ``i = q*e + j`` has the
parameters of subtask ``j + 1`` shifted by ``q`` periods, so one job's
worth of columns per weight covers every job of every task.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .subtask import window_table

__all__ = [
    "IDX_BITS",
    "ID_BITS",
    "GD_BITS",
    "MAX_TASK_ID",
    "MAX_INDEX",
    "pack_key",
    "unpack_key",
]

#: Field widths.  A 32-bit index field allows ~4e9 subtasks per task
#: (simulation horizons beyond any campaign), 22 bits allow 4M concurrent
#: task ids, and the 40-bit group-deadline field holds any ``D - d``
#: difference for periods up to ~10^12 quanta.
IDX_BITS = 32
ID_BITS = 22
GD_BITS = 40

_ID_SHIFT = IDX_BITS
_GD_SHIFT = IDX_BITS + ID_BITS
_B_SHIFT = IDX_BITS + ID_BITS + GD_BITS
_D_SHIFT = _B_SHIFT + 1

_IDX_MASK = (1 << IDX_BITS) - 1
_ID_MASK = (1 << ID_BITS) - 1
_GD_MASK = (1 << GD_BITS) - 1

#: Light tasks (group deadline 0) sort after every heavy task in a
#: deadline/b-bit tie: the largest value of the reversed field.
GD_LIGHT = _GD_MASK
_GD_TOP = GD_LIGHT - 1

MAX_TASK_ID = _ID_MASK
MAX_INDEX = _IDX_MASK
_MAX_GD_DELTA = _GD_TOP


def pack_key(deadline: int, b_bit: int, group_deadline: int,
             task_id: int, index: int) -> int:
    """Pack one subtask's PD² priority into a single integer.

    Induces the same order as the tuple
    ``(deadline, 1 - b_bit, -group_deadline, task_id, index)`` over all
    real subtask parameter combinations (where ``group_deadline`` is
    either 0 or ``>= deadline``) within the field bounds.
    """
    if not 0 <= b_bit <= 1:
        raise OverflowError(f"b bit {b_bit} outside [0, 1]")
    if group_deadline:
        delta = group_deadline - deadline
        if not 0 <= delta <= _MAX_GD_DELTA:
            raise OverflowError(
                f"group deadline offset {delta} outside [0, {_MAX_GD_DELTA}]"
            )
        gd_field = _GD_TOP - delta
    else:
        gd_field = GD_LIGHT
    if not 0 <= task_id <= MAX_TASK_ID:
        raise OverflowError(f"task id {task_id} outside [0, {MAX_TASK_ID}]")
    if not 0 <= index <= MAX_INDEX:
        raise OverflowError(f"subtask index {index} outside [0, {MAX_INDEX}]")
    return (((deadline << 1 | (1 - b_bit)) << GD_BITS | gd_field)
            << ID_BITS | task_id) << IDX_BITS | index


def unpack_key(key: int) -> Tuple[int, int, int]:
    """``(deadline, task_id, index)`` of a packed key.

    The b-bit and group deadline are recoverable too, but the simulator
    only ever needs these three (for miss records and bookkeeping).
    """
    return key >> _D_SHIFT, (key >> _ID_SHIFT) & _ID_MASK, key & _IDX_MASK


@lru_cache(maxsize=None)
def _column_base(
    execution: int, period: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One job's subtask parameter columns for ``(e, p)``, phase 0.

    Arrays of length ``e`` indexed by the within-job offset ``j`` (subtask
    ``j+1`` of job 1): pseudo-release, pseudo-deadline, ``1 - b`` and the
    job-invariant group-deadline offset ``D - d`` (``-1`` marks a light
    task, whose group deadline is 0 by convention).  All int64.
    """
    table = window_table(execution, period)
    rel = np.empty(execution, dtype=np.int64)
    dl = np.empty(execution, dtype=np.int64)
    bbar = np.empty(execution, dtype=np.int64)
    gdd = np.empty(execution, dtype=np.int64)
    for j in range(execution):
        i = j + 1
        d = table.deadline(i)
        gd = table.group_deadline(i)
        rel[j] = table.release(i)
        dl[j] = d
        bbar[j] = 1 - table.b_bit(i)
        gdd[j] = (gd - d) if gd else -1
    rel.setflags(write=False)
    dl.setflags(write=False)
    bbar.setflags(write=False)
    gdd.setflags(write=False)
    return rel, dl, bbar, gdd
