"""Processor bins: the unit of state in partitioned scheduling.

Partitioning assigns each task permanently to one processor; a
:class:`ProcessorBin` tracks the tasks on one processor together with the
exact (rational) utilization committed so far, plus the bookkeeping the
overhead-aware EDF acceptance test needs — the largest cache-related
preemption delay among resident tasks, which inflates every *later*
(shorter-period) arrival per Eq. (3) of the paper.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional

from ..core.rational import exact_sum
from ..workload.spec import TaskSpec

__all__ = ["ProcessorBin", "Partition"]


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

    @property
    def spare(self) -> Fraction:
        return Fraction(1) - self.load

    def add(self, spec: TaskSpec, utilization: Fraction) -> None:
        """Commit ``spec`` at the given (possibly inflated) utilization."""
        self.tasks.append(spec)
        num, den = utilization.numerator, utilization.denominator
        self.load_num = self.load_num * den + num * self.load_den
        self.load_den *= den
        if spec.cache_delay > self.max_cache_delay:
            self.max_cache_delay = spec.cache_delay
        if self.min_period is None or spec.period < self.min_period:
            self.min_period = spec.period
        if self.max_period is None or spec.period > self.max_period:
            self.max_period = spec.period

    def rescan_residents(self) -> None:
        """Recompute ``max_cache_delay``, ``min_period`` and
        ``max_period`` from the residents, after a caller removed some."""
        self.max_cache_delay = max((t.cache_delay for t in self.tasks),
                                   default=0)
        self.min_period = min((t.period for t in self.tasks), default=None)
        self.max_period = max((t.period for t in self.tasks), default=None)

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
