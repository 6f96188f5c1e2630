"""Processor bins: the unit of state in partitioned scheduling.

Partitioning assigns each task permanently to one processor; a
:class:`ProcessorBin` tracks the tasks on one processor together with the
exact (rational) utilization committed so far, plus the bookkeeping the
overhead-aware EDF acceptance test needs — the largest cache-related
preemption delay among resident tasks, which inflates every *later*
(shorter-period) arrival per Eq. (3) of the paper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..core.rational import exact_sum
from ..workload.spec import TaskSpec

__all__ = ["ProcessorBin", "Partition", "SHADOW_MARGIN", "shadow_after_add"]

#: How far :attr:`ProcessorBin.spare_shadow` may stray from the exact
#: spare capacity before a first-fit screen must not trust it.
#:
#: Rounding bound.  The shadow is set from the exact load as
#: ``1.0 - num/den`` (int true division rounds correctly): error at
#: most ``2**-52``.  Each :meth:`ProcessorBin.add` subtracts a correctly
#: rounded ``u = num/den``: error at most ``2**-53 * u`` for the
#: quotient plus ``2**-53 * |result|`` for the subtraction, which is at
#: most ``2**-52`` while ``u`` and the shadow lie in ``[0, 1]``.  After
#: ``n`` adds the error is at most ``(n + 1) * 2**-52``; resetting from
#: the exact load every ``_SHADOW_ADDS = 2**20`` adds caps it at
#: ``2**-32 < 2.4e-10``.  A screen that compares the shadow with a
#: rounded utilization adds at most ``3 * 2**-53`` more, so the total
#: stays below ``2.5e-10``, and a 1e-9 margin covers it four times over.
#: A shadow that leaves ``[-SHADOW_MARGIN, 1]`` is reset from the exact
#: load, and an exact load outside that range (above 1 or below 0, which
#: no acceptance test commits) sets it to NaN, which every screen
#: comparison fails, so such a bin is always probed exactly.
SHADOW_MARGIN = 1e-9
_SHADOW_ADDS = 1 << 20


def _exact_shadow(load_num: int, load_den: int) -> float:
    """The spare-capacity shadow of an exact load ``load_num/load_den``
    (NaN outside the range the rounding bound covers)."""
    spare = 1.0 - load_num / load_den
    return spare if -SHADOW_MARGIN <= spare <= 1.0 else math.nan


def shadow_after_add(spare: float, adds: int, u: float,
                     exact_load: Callable[[Any], Tuple[int, int]],
                     key: Any) -> Tuple[float, int]:
    """The shadow and its add count after committing a utilization whose
    float is ``u``.  ``exact_load(key)`` gives the new exact load as an
    unreduced ``(num, den)`` pair; it is called only when the shadow is
    reset, so a caller that keeps no exact load forms one only then.

    The one implementation of the shadow update, shared by
    :meth:`ProcessorBin.add` and the column first fit
    (:func:`~repro.partition.partitioner.edf_overhead_first_fit`).
    """
    adds += 1
    spare -= u
    if adds < _SHADOW_ADDS and -SHADOW_MARGIN <= spare <= 1.0:
        return spare, adds
    return _exact_shadow(*exact_load(key)), 0


#: A :class:`ProcessorBin`'s exact load pair, for :func:`shadow_after_add`.
_load_pair = attrgetter("load_num", "load_den")


class ProcessorBin:
    """One processor's task assignment with exact load accounting."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.tasks: List[TaskSpec] = []
        #: Exact committed utilization, kept as an (unnormalised)
        #: numerator/denominator pair — the acceptance-test probes only
        #: cross-multiply, so skipping the gcd on every admission is free
        #: exactness.  ``load`` exposes the reduced :class:`Fraction`.
        self.load_num: int = 0
        self.load_den: int = 1
        #: Float shadow of the spare capacity ``1 - load``, within
        #: :data:`SHADOW_MARGIN` of the exact value (or NaN).  The EDF
        #: first-fit scans settle a probe on the shadow alone when it
        #: clears or misses the task's utilization by more than the
        #: margin, and cross-multiply only inside it.
        self.spare_shadow: float = 1.0
        self._shadow_adds = 0
        #: Largest D(T) among resident tasks (for Eq. (3) inflation of
        #: subsequently added, shorter-period tasks).
        self.max_cache_delay: int = 0
        #: Smallest period among resident tasks (RM response-time tests).
        self.min_period: Optional[int] = None
        #: Largest period among resident tasks (the decreasing-period
        #: feed-order check of the overhead-aware EDF test).
        self.max_period: Optional[int] = None

    @property
    def load(self) -> Fraction:
        """Exact committed utilization (inflated, if an overhead-aware
        acceptance test is in use — the test supplies the increments)."""
        return Fraction(self.load_num, self.load_den)

    @load.setter
    def load(self, value: Fraction) -> None:
        f = Fraction(value)
        self.load_num, self.load_den = f.numerator, f.denominator
        self._reset_shadow()

    def _reset_shadow(self) -> None:
        """Set the shadow from the exact load (NaN outside the range the
        rounding bound covers)."""
        self.spare_shadow = _exact_shadow(self.load_num, self.load_den)
        self._shadow_adds = 0

    @property
    def spare(self) -> Fraction:
        return Fraction(1) - self.load

    def add(self, spec: TaskSpec, utilization: Fraction) -> None:
        """Commit ``spec`` at the given (possibly inflated) utilization."""
        self.tasks.append(spec)
        num, den = utilization.numerator, utilization.denominator
        self.load_num = self.load_num * den + num * self.load_den
        self.load_den *= den
        self.spare_shadow, self._shadow_adds = shadow_after_add(
            self.spare_shadow, self._shadow_adds, num / den, _load_pair,
            self)
        if spec.cache_delay > self.max_cache_delay:
            self.max_cache_delay = spec.cache_delay
        if self.min_period is None or spec.period < self.min_period:
            self.min_period = spec.period
        if self.max_period is None or spec.period > self.max_period:
            self.max_period = spec.period

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:
        return f"ProcessorBin({self.index}, {len(self.tasks)} tasks, load={self.load})"


class Partition:
    """A complete assignment of tasks to processor bins."""

    def __init__(self) -> None:
        self.bins: List[ProcessorBin] = []

    def new_bin(self) -> ProcessorBin:
        b = ProcessorBin(len(self.bins))
        self.bins.append(b)
        return b

    @property
    def processors(self) -> int:
        return len(self.bins)

    def total_load(self) -> Fraction:
        return exact_sum([b.load_num for b in self.bins],
                         [b.load_den for b in self.bins])

    def bin_of(self, name: str) -> Optional[ProcessorBin]:
        for b in self.bins:
            if any(t.name == name for t in b.tasks):
                return b
        return None

    def __iter__(self) -> "Iterator[ProcessorBin]":
        return iter(self.bins)

    def __repr__(self) -> str:
        return f"Partition({self.processors} processors, load={self.total_load()})"
