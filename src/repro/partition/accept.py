"""Per-processor acceptance tests for partitioning heuristics.

A heuristic needs an oracle: "can this task be added to this processor and
every resident deadline still be met?"  This module provides the tests the
paper discusses:

* :class:`EDFUtilizationTest` — EDF is optimal on one processor, so the
  exact condition is ``sum u <= 1``.
* :class:`EDFOverheadTest` — the same test on Eq.-(3)-inflated costs
  ``e' = e + 2(S_EDF + C) + max_{U in P_T} D(U)``, where ``P_T`` is the set
  of *longer-period* tasks already on the processor.  The Fig. 3/4
  partitioner feeds tasks in decreasing-period order precisely so every
  earlier resident belongs to ``P_T`` and inflation is fixed at admission.
* :class:`RMLiuLaylandTest` — the classic ``U <= n(2^{1/n} - 1)`` bound.
* :class:`RMHyperbolicTest` — Bini–Buttazzo's tighter ``prod(u_i + 1) <= 2``.
* :class:`RMResponseTimeTest` — the exact Joseph–Pandya / Lehoczky
  analysis: the paper notes that using the exact test turns partitioning
  into variable-sized-bin packing (acceptance now depends on the whole bin
  content, not a scalar load), which is one of its arguments for EDF-FF.

Tests are stateless; they read bin contents and return the utilization to
commit so the bin's exact ``load`` stays meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from ..workload.spec import TaskSpec
from .bins import ProcessorBin

__all__ = [
    "AcceptanceTest",
    "EDFUtilizationTest",
    "EDFOverheadTest",
    "RMLiuLaylandTest",
    "RMHyperbolicTest",
    "RMResponseTimeTest",
    "rm_response_time",
]


class AcceptanceTest:
    """Interface: can ``spec`` join ``bin``, and at what committed load?"""

    #: Scheduling algorithm the test certifies ("edf" or "rm").
    algorithm = "edf"

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        """Return the utilization to commit if acceptable, else ``None``."""
        raise NotImplementedError

    def candidates(self, bins: Sequence[ProcessorBin],
                   spec: TaskSpec) -> Sequence[ProcessorBin]:
        """The bins a placement whose feed order the caller does not
        choose (an online join, a failover re-home) may probe for
        ``spec``: all of them, unless the test constrains the order."""
        return bins


class EDFUtilizationTest(AcceptanceTest):
    """Exact EDF test: total utilization at most 1.

    The probe cross-multiplies integers — ``load + e/p <= 1`` iff
    ``load_num * p + e * load_den <= load_den * p`` — so a failed
    admission (the common case while first fit scans full bins) builds no
    :class:`~fractions.Fraction` at all; the exact rational is only
    constructed for the committed load.
    """

    algorithm = "edf"

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        num, den = bin.load_num, bin.load_den
        if num * spec.period + spec.execution * den > den * spec.period:
            return None
        return spec.utilization


class EDFOverheadTest(AcceptanceTest):
    """EDF test on overhead-inflated costs (Eq. (3), EDF branch).

    ``fixed_inflation`` is the task-independent term ``2(S_EDF + C)`` in
    ticks; the cache term is the bin's current ``max_cache_delay``.

    Correctness requires feeding tasks in *non-increasing period order*
    (``ValueError`` otherwise): then every task already in the bin has a
    period at least as large as the newcomer's, i.e. is exactly the set
    ``P_T`` the newcomer can preempt, and no later admission
    retroactively changes an earlier task's inflation.  Online joins and
    failover re-homing cannot choose their order, so they probe only
    :meth:`candidates`, the bins that keep it.

    This class serves the spec packers
    (:func:`~repro.partition.partitioner.edf_ff`, online joins,
    repacking, failover), which decide by this exact probe alone.  The
    Fig. 3/4 analysis runs the same decisions on task columns
    (:func:`~repro.partition.partitioner.edf_overhead_first_fit`, whose
    float screen is its own) and is tested against this class.
    """

    algorithm = "edf"

    def __init__(self, fixed_inflation: int) -> None:
        if fixed_inflation < 0:
            raise ValueError("inflation must be nonnegative")
        self.fixed_inflation = fixed_inflation

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        if not _keeps_period_order(bin, spec):
            raise ValueError(
                "EDFOverheadTest requires tasks in non-increasing period order"
            )
        e_prime = spec.execution + self.fixed_inflation + bin.max_cache_delay
        if e_prime > spec.period:
            return None
        # Integer cross-multiplied probe (see EDFUtilizationTest): the
        # Fraction is only built when the admission succeeds.
        num, den = bin.load_num, bin.load_den
        if num * spec.period + e_prime * den > den * spec.period:
            return None
        return Fraction(e_prime, spec.period)

    def candidates(self, bins: Sequence[ProcessorBin],
                   spec: TaskSpec) -> Sequence[ProcessorBin]:
        return [b for b in bins if _keeps_period_order(b, spec)]


def _keeps_period_order(bin: ProcessorBin, spec: TaskSpec) -> bool:
    """True when every resident of ``bin`` has a period at least
    ``spec``'s, so all of them are in the set ``P_T`` the newcomer can
    preempt (``bin.min_period`` is kept by :class:`ProcessorBin`)."""
    return bin.min_period is None or spec.period <= bin.min_period


def _ll_bound(n: int) -> float:
    """Liu & Layland's RM bound for n tasks, ``n(2^{1/n} - 1)``."""
    return n * (2.0 ** (1.0 / n) - 1.0)


class RMLiuLaylandTest(AcceptanceTest):
    """RM admission by the Liu–Layland utilization bound (sufficient only).

    Uses a small float tolerance on the irrational bound; the margin is
    conservative (a value within 1e-12 of the bound is rejected).
    """

    algorithm = "rm"

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        u = spec.utilization
        n = len(bin.tasks) + 1
        if float(bin.load + u) <= _ll_bound(n) - 1e-12:
            return u
        return None


class RMHyperbolicTest(AcceptanceTest):
    """RM admission by the hyperbolic bound ``prod(u_i + 1) <= 2`` (exact
    rational arithmetic; tighter than Liu–Layland)."""

    algorithm = "rm"

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        u = spec.utilization
        prod = Fraction(1)
        for t in bin.tasks:
            prod *= t.utilization + 1
        prod *= u + 1
        return u if prod <= 2 else None


def rm_response_time(tasks: List[TaskSpec], which: int) -> Optional[int]:
    """Exact worst-case response time of ``tasks[which]`` under RM.

    Standard fixed-point iteration ``R = e_i + sum_j ceil(R/p_j) e_j`` over
    the strictly higher-priority tasks (shorter periods; period ties broken
    by list order).  Returns ``None`` when the iteration exceeds the
    period (unschedulable).  All integer arithmetic.
    """
    me = tasks[which]
    higher = [t for k, t in enumerate(tasks)
              if t.period < me.period or (t.period == me.period and k < which)]
    r = me.execution
    while True:
        interference = sum(-(-r // t.period) * t.execution for t in higher)
        nxt = me.execution + interference
        if nxt > me.period:
            return None
        if nxt == r:
            return r
        r = nxt


class RMResponseTimeTest(AcceptanceTest):
    """Exact RM admission: every resident task (and the newcomer) passes
    response-time analysis after the addition.

    This is the "exact feasibility test" of Lehoczky et al. the paper
    mentions — strictly more admissive than the bounds, at the cost of
    re-analysing the whole bin per admission (the variable-sized-bin
    effect).
    """

    algorithm = "rm"

    def admit(self, bin: ProcessorBin, spec: TaskSpec) -> Optional[Fraction]:
        candidate = bin.tasks + [spec]
        for i in range(len(candidate)):
            if rm_response_time(candidate, i) is None:
                return None
        return spec.utilization
