"""Execution-cost inflation — Eq. (3) of the paper.

Schedulability tests assume zero-cost scheduling; real systems pay for
context switches, scheduler invocations, and cold caches after
preemptions.  The paper folds all of it into each task's execution cost:

EDF branch::

    e' = e + 2(S_EDF + C) + max_{U in P_T} D(U)

(the max term depends on the processor's other residents, so it is applied
by :class:`~repro.partition.accept.EDFOverheadTest` during packing; here we
expose the fixed part).

PD² branch (a fixed point, because the preemption count depends on the
inflated length itself)::

    e' = e + ceil(e'/q)·S_PD2 + C + min(ceil(e'/q) − 1, p/q − ceil(e'/q)) · (C + D(T))

* ``ceil(e'/q)·S_PD2`` — the scheduler runs at the head of every quantum
  the job occupies;
* ``+ C`` — the job's first dispatch;
* the ``min(E−1, P−E)`` term — the paper's improved preemption bound: a
  job spanning ``E`` of its period's ``P`` quanta is preempted at most
  ``E−1`` times, but also at most ``P−E`` times because back-to-back
  quanta continue on the same processor; each preemption costs a switch
  plus the task's cache reload ``D(T)``.

The iteration state is the quantum count ``E = ceil(e'/q)``, an integer in
``[1, P]``.  The result is the least ``E`` that covers the demand it
induces — the fixed point whenever the iteration reaches one — found
exactly in ``O(log P)`` evaluations however long the period; the paper
observes ~5 iterations, which every :class:`PD2Inflation` reports for the
Sec.-4 claim check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..workload.spec import TaskSpec
from .model import OverheadModel

__all__ = ["PD2Inflation", "pd2_inflate", "pd2_inflate_set", "pd2_total_weight"]


class PD2Inflation(NamedTuple):
    """Result of inflating one task for PD² on a given platform.

    A named tuple rather than a dataclass: Fig. 3 campaigns build tens of
    thousands of these per grid point, and tuple construction is several
    times cheaper than frozen-dataclass ``object.__setattr__`` init.
    """

    spec: TaskSpec
    inflated_execution: int     # e' in ticks
    quanta: int                 # E = ceil(e'/q)
    period_quanta: int          # P = p/q
    iterations: int

    @property
    def weight(self) -> Fraction:
        """The quantised weight E/P the PD² feasibility test charges."""
        return Fraction(self.quanta, self.period_quanta)

    @property
    def feasible(self) -> bool:
        return self.quanta <= self.period_quanta


def pd2_inflate(spec: TaskSpec, model: OverheadModel, n_tasks: int,
                processors: int) -> PD2Inflation:
    """Fixed-point Eq. (3) inflation of one task for PD².

    Returns an inflation whose ``feasible`` flag is False when the inflated
    cost exceeds the period (the task cannot run even alone).  A one-row
    call into the loop :func:`pd2_inflate_set` runs; see :func:`_inflate`
    for the fixed point and its work bound.
    """
    return _inflate((spec,), model.pd2_sched_cost(n_tasks, processors),
                    model.context_switch, model.quantum)[0]


def pd2_inflate_set(specs: Sequence[TaskSpec], model: OverheadModel,
                    processors: int) -> List[PD2Inflation]:
    """Inflate a whole set (``n_tasks`` is the set size, as in the paper).

    The Fig. 3 search calls this for every candidate M of every random
    set, so the fixed point runs as one loop over the set rather than a
    call per task.
    """
    if not specs:
        return []
    return _inflate(specs, model.pd2_sched_cost(len(specs), processors),
                    model.context_switch, model.quantum)


#: Iterations after which :func:`_inflate` stops stepping and bisects what
#: is left.  Generated and trace-derived sets settle in at most six.
_BISECT_AFTER = 32


def _inflate(specs: Sequence[TaskSpec], s_pd2: float, c: int,
             q: int) -> List[PD2Inflation]:
    """Eq. (3) over the quantum count ``E = ceil(e'/q)``, one task per row.

    Write ``f(E)`` for the quantum count of the demand that ``E`` quanta
    induce.  The result is the least ``E`` in ``[1, P]`` that covers its
    own demand, ``f(E) <= E``, or infeasible if no ``E`` does.  No
    ``E < E0 = ceil(e/q)`` covers, since ``f(E) >= E0``.

    The loop iterates ``E <- f(E)`` from ``E0``.  Up to ``(P+1)/2`` (the
    rising branch, where the preemption bound is ``E-1``) ``f`` is
    non-decreasing, so a climb there never passes the least covering
    ``E`` on that branch.  Past it (the falling branch, bound ``P-E``)
    ``f`` is non-increasing unless ``S_PD2`` exceeds ``C + D(T)``, in
    which case ``f`` is non-decreasing everywhere.  Either way every
    ``E`` below the last failing iterate fails too, so the first iterate
    ``X`` with ``f(X) <= X`` bounds the answer from above, and if
    ``f(X) = X`` it *is* the answer: the paper's fixed point.

    When ``f(X) < X`` (the iteration turns back: only possible on the
    falling branch), ``E`` covers exactly when it is at least the answer,
    so each further iterate narrows the interval that holds it; a 2-cycle
    straddling the answer closes it.  The rest is bisected
    (:func:`_settle`) when an iterate falls outside the interval, when the
    iteration passes ``P``, or after ``_BISECT_AFTER`` iterations.  The
    work per task is therefore ``O(log P)`` evaluations whatever the
    period, and the iteration counts the paper reports (about five) are
    unchanged for every task that settles within the budget.
    """
    ceil = math.ceil
    out: List[PD2Inflation] = []
    append = out.append
    for spec in specs:
        p = spec.period
        if p % q != 0:
            raise ValueError(
                f"{spec.name or 'task'}: period {p} not a quantum multiple"
            )
        p_quanta = p // q
        switch_cost = c + spec.cache_delay
        e = spec.execution
        e_prime = e
        e_quanta = -(-e_prime // q)
        lo = e_quanta  # every E below lo fails to cover its demand
        iterations = 0
        while True:
            iterations += 1
            preemptions = min(e_quanta - 1, p_quanta - e_quanta)
            if preemptions < 0 or iterations > _BISECT_AFTER:
                # Past the period, or a long climb: bisect [lo, P].
                append(PD2Inflation(spec, e_prime, e_quanta, p_quanta,
                                    iterations) if lo > p_quanta
                       else _settle(spec, s_pd2, c, q, lo, iterations - 1))
                break
            new_e_prime = ceil(e + e_quanta * s_pd2 + c
                               + preemptions * switch_cost)
            new_quanta = -(-new_e_prime // q)
            if new_quanta == e_quanta:
                append(PD2Inflation(spec, new_e_prime, new_quanta, p_quanta,
                                    iterations))
                break
            if new_quanta < e_quanta:
                # e_quanta covers: the answer lies in [lo, e_quanta].
                append(_settle(spec, s_pd2, c, q, lo, iterations,
                               (e_quanta, new_e_prime), new_quanta))
                break
            lo = e_quanta + 1
            e_prime, e_quanta = new_e_prime, new_quanta
    return out


def _settle(spec: TaskSpec, s_pd2: float, c: int, q: int, lo: int,
            iterations: int, known: Optional[Tuple[int, int]] = None,
            nxt: Optional[int] = None) -> PD2Inflation:
    """The least covering ``E`` at or above ``lo`` (see :func:`_inflate`),
    every ``E < lo`` being known to fail.

    ``known`` is a covering ``(E, demand)`` that bounds the search, else
    it runs up to ``P``; ``nxt`` continues the iteration from ``known``
    while it keeps narrowing the interval.  Bisection relies on ``f``
    being monotone on each branch with steps ``f(E+1) - f(E)`` either all
    at most 1 (the covering ``E`` form a suffix of the branch) or all at
    least 1 (a prefix); each branch is searched for either form.
    """
    p_quanta = spec.period // q
    e, switch_cost = spec.execution, c + spec.cache_delay
    ceil = math.ceil
    demand: Dict[int, int] = {}
    hi = p_quanta
    if known is not None:
        hi, demand[hi] = known

    def covers(e_quanta: int) -> bool:
        nonlocal iterations
        d = demand.get(e_quanta)
        if d is None:
            iterations += 1
            preemptions = min(e_quanta - 1, p_quanta - e_quanta)
            d = demand[e_quanta] = ceil(e + e_quanta * s_pd2 + c
                                        + preemptions * switch_cost)
        return -(-d // q) <= e_quanta

    def result(e_quanta: int) -> PD2Inflation:
        d = demand[e_quanta]
        if -(-d // q) != e_quanta:  # covering, but not a fixed point
            d = e_quanta * q
        return PD2Inflation(spec, d, e_quanta, p_quanta, iterations)

    while nxt is not None and lo <= nxt < hi and iterations < _BISECT_AFTER:
        covered = covers(nxt)
        f_nxt = -(-demand[nxt] // q)
        if f_nxt == nxt:  # a fixed point: the answer
            return result(nxt)
        if covered:
            hi = nxt
        else:
            lo = nxt + 1
        if lo == hi:
            return result(hi)
        nxt = f_nxt
    half = (p_quanta + 1) // 2  # the last E on the rising branch
    for a, b in ((lo, min(hi, half)), (max(lo, half + 1), hi)):
        if a > b:
            continue
        if covers(a):
            return result(a)
        if not covers(b):
            continue
        while b - a > 1:  # invariant: a fails, b covers
            mid = (a + b) // 2
            if covers(mid):
                b = mid
            else:
                a = mid
        return result(b)
    # Nothing in [lo, P] covers (``P`` itself was tried last): infeasible.
    d = demand[p_quanta]
    return PD2Inflation(spec, d, -(-d // q), p_quanta, iterations)


def pd2_total_weight(inflations: Sequence[PD2Inflation]) -> Fraction:
    """Exact total quantised weight ``sum E/P`` — compare against M.

    Accumulated as an unnormalised numerator/denominator pair, reduced by
    one final gcd — exactly the same rational as summing the ``weight``
    fractions, minus a gcd per task.
    """
    num, den = 0, 1
    for inf in inflations:
        num = num * inf.period_quanta + inf.quanta * den
        den *= inf.period_quanta
    return Fraction(num, den)
