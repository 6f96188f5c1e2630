"""Task specifications: the static description shared by all subsystems.

A :class:`TaskSpec` is the unit the workload generator produces and the
schedulability machinery consumes — integer execution cost and period in
*ticks* (we use microseconds throughout, matching the paper's constants:
context switch C = 5 µs, cache delay D(T) ~ U[0, 100] µs, quantum
q = 1000 µs).  Specs are immutable; simulators instantiate them into
:class:`~repro.core.task.PeriodicTask` (after quantisation) or
:class:`~repro.core.uniproc.UniTask` as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Tuple

__all__ = ["TaskSpec", "total_utilization", "max_utilization"]


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """Static description of one periodic task, in integer ticks (µs).

    ``cache_delay`` is the task's maximum cache-related preemption delay
    ``D(T)`` — the paper charges it analytically on every resumption after
    a preemption or migration (cold-cache assumption).
    """

    execution: int
    period: int
    name: str = ""
    cache_delay: int = 0
    #: Relative deadline; ``None`` means implicit (= period).  Constrained
    #: deadlines (deadline < period) are analysed with the processor-demand
    #: criterion in :mod:`repro.partition.demand`.
    deadline: Optional[int] = None
    #: Longest critical section the task executes (ticks); 0 = independent.
    #: Resource identity is modelled separately (see
    #: :mod:`repro.partition.blocking`).
    max_section: int = 0
    #: Name of the resource the sections access; empty = independent.
    resource: str = ""

    def __post_init__(self) -> None:
        if self.execution <= 0:
            raise ValueError(f"execution must be positive, got {self.execution}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.execution > self.period:
            raise ValueError(
                f"{self.name or 'task'}: execution {self.execution} exceeds "
                f"period {self.period}"
            )
        if self.cache_delay < 0:
            raise ValueError("cache_delay must be nonnegative")
        if self.deadline is not None:
            if not self.execution <= self.deadline <= self.period:
                raise ValueError(
                    f"{self.name or 'task'}: deadline must satisfy "
                    f"e <= D <= p, got {self.deadline}"
                )
        if self.max_section < 0 or self.max_section > self.execution:
            raise ValueError(
                f"{self.name or 'task'}: max_section must be in "
                f"[0, execution], got {self.max_section}"
            )
        if bool(self.resource) != (self.max_section > 0):
            raise ValueError(
                f"{self.name or 'task'}: resource and max_section must be "
                "set together"
            )

    @property
    def relative_deadline(self) -> int:
        """The effective relative deadline (period when implicit)."""
        return self.period if self.deadline is None else self.deadline

    @property
    def utilization(self) -> Fraction:
        """Exact utilization e/p."""
        return Fraction(self.execution, self.period)

    def with_execution(self, execution: int) -> "TaskSpec":
        """Copy with a (typically inflated) execution cost."""
        return replace(self, execution=execution)

    def scaled_quanta(self, quantum: int) -> Tuple[int, int]:
        """``(e, p)`` in whole quanta: execution rounded *up* (the paper's
        quantisation — "execution times must be rounded up to the next
        multiple of the quantum size"), period divided exactly.

        The period must be a multiple of the quantum (asserted; the
        generator only produces such periods, per the paper's assumption).
        """
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.period % quantum != 0:
            raise ValueError(
                f"{self.name or 'task'}: period {self.period} not a multiple "
                f"of the quantum {quantum}"
            )
        e = -(-self.execution // quantum)
        p = self.period // quantum
        # Note: an *inflated* execution cost may quantise to e > p; callers
        # treat that as "this task alone is infeasible" rather than clamping.
        return e, p


def total_utilization(specs: Iterable[TaskSpec]) -> Fraction:
    """Exact summed utilization.

    Accumulates an unnormalised numerator/denominator pair and reduces
    once at the end: one gcd instead of one per task, with the same exact
    result (rational addition needs no intermediate normalisation).
    """
    num, den = 0, 1
    for s in specs:
        num = num * s.period + s.execution * den
        den *= s.period
    return Fraction(num, den)


def max_utilization(specs: Iterable[TaskSpec]) -> Fraction:
    """Largest per-task utilization (0 for an empty collection)."""
    return max((s.utilization for s in specs), default=Fraction(0))
