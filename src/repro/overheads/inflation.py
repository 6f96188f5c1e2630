"""Execution-cost inflation — Eq. (3) of the paper.

Schedulability tests assume zero-cost scheduling; real systems pay for
context switches, scheduler invocations, and cold caches after
preemptions.  The paper folds all of it into each task's execution cost:

EDF branch::

    e' = e + 2(S_EDF + C) + max_{U in P_T} D(U)

(the max term depends on the processor's other residents, so it is applied
during packing, by :func:`~repro.partition.partitioner.edf_overhead_first_fit`
and :class:`~repro.partition.accept.EDFOverheadTest`; here we expose the
fixed part).

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
from operator import gt, truediv
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.rational import exact_sum, float_sum
from ..workload.spec import TaskColumns, TaskSpec
from .model import OverheadModel

__all__ = ["PD2Inflation", "pd2_inflate", "pd2_inflate_set", "pd2_search",
           "pd2_total_weight"]


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
    call into the loop :func:`pd2_inflate_set` runs; see :func:`_climb`
    for the fixed point and its work bound.
    """
    return _inflate((spec,), model.pd2_sched_cost(n_tasks, processors),
                    model.context_switch, model.quantum)[0]


def pd2_inflate_set(specs: Sequence[TaskSpec], model: OverheadModel,
                    processors: int) -> List[PD2Inflation]:
    """Inflate a whole set (``n_tasks`` is the set size, as in the paper).

    The fixed point runs as one loop over the set rather than a call per
    task: :func:`_climb`, which the Fig. 3 search (:func:`pd2_search`)
    runs on task columns.
    """
    if not specs:
        return []
    return _inflate(specs, model.pd2_sched_cost(len(specs), processors),
                    model.context_switch, model.quantum)


def pd2_search(tasks: TaskColumns, model: OverheadModel, first: int,
               cap: int) -> Optional[Tuple[int, float, int]]:
    """The least ``M`` in ``[first, cap]`` that passes Eq. (2) on the set
    inflated for ``M`` processors, as ``(M, total quantised weight at M
    as a float, largest Eq. (3) iteration count at M)``.

    ``None`` when no such ``M`` exists, or when some task is infeasible
    alone at a candidate ``M`` (more processors only raise ``S_PD2``).
    The total weight is non-decreasing in ``M``, so a candidate whose
    total exceeds it can jump to ``max(M + 1, ceil(total))`` and the
    first success is the least.

    The per-task constants are prepared once from the columns; a
    candidate runs :func:`_climb` and keeps only quanta and iteration
    counts.  The climb depends on ``M`` only through ``S_PD2(N, M)``, so
    a candidate whose ``S_PD2`` equals the previous candidate's reuses
    that climb and everything derived from it (the infeasibility
    verdict, the float total, the exact total if one was built and the
    largest iteration count): exact under any model, and a NaN
    ``S_PD2`` never compares equal.  The paper model holds ``S_PD2``
    flat for ``M >= 16`` and the zero model everywhere, so there a
    search climbs once per distinct ``S_PD2`` it meets, not once per
    candidate.  Eq. (2) is screened on the float total: its terms ``E/P``
    lie in ``(0, 1]`` and each is rounded once (``2**-53``), and
    left-to-right summation adds at most ``2**-53`` times each partial
    sum, so the float total is within ``(n + 1)**2 * 2**-53`` of the
    exact one.  Unless it lies within twice that of an integer, it has
    the exact total's floor and ceiling, so the comparison with ``M``
    and the jump are the exact ones.  Otherwise (harmonic sets whose
    weights sum to an integer land here) the decision is made on the
    exact total.  The accepted ``M``'s total is returned as the exact
    total correctly rounded to a float: floated from the exact total the
    decision built, else from :func:`~repro.core.rational.float_sum`,
    which builds none unless the total sits on a rounding boundary.
    """
    if first > cap:
        return None
    c, q = model.context_switch, model.quantum
    rows = _rows(tasks, c, q)
    n = len(rows)
    periods = [row[2] for row in rows]
    margin = (n + 1) ** 2 * 2.0 ** -52
    last_s = math.nan  # never equal: the first candidate climbs
    m = first
    while m <= cap:
        s = model.pd2_sched_cost(n, m)
        if s != last_s:
            last_s = s
            _, quanta, iterations = _climb(rows, s, c, q)
            if any(map(gt, quanta, periods)):
                return None  # some task infeasible alone
            total = sum(map(truediv, quanta, periods))
            exact = (exact_sum(quanta, periods)
                     if abs(total - round(total)) <= margin else None)
            its = max(iterations, default=0)
        if exact is not None:
            if exact <= m:
                return m, float(exact), its
            m = max(m + 1, math.ceil(exact))
        elif total < m:
            return m, float_sum(quanta, periods), its
        else:
            m = max(m + 1, math.ceil(total))
    return None


#: Iterations after which :func:`_climb` stops stepping and bisects what
#: is left.  Generated and trace-derived sets settle in at most six.
_BISECT_AFTER = 32

#: One prepared task: ``(e, E0 = ceil(e/q), P = p/q, C + D(T))``.
_Row = Tuple[int, int, int, int]


def _rows(tasks: TaskColumns, c: int, q: int) -> List[_Row]:
    """The per-task constants of Eq. (3), which do not depend on ``M``."""
    for name, p in zip(tasks.name, tasks.period):
        if p % q != 0:
            raise ValueError(
                f"{name or 'task'}: period {p} not a quantum multiple")
    return [(e, -(-e // q), p // q, c + d)
            for e, p, d in zip(tasks.execution, tasks.period,
                               tasks.cache_delay)]


def _inflate(specs: Sequence[TaskSpec], s_pd2: float, c: int,
             q: int) -> List[PD2Inflation]:
    """Eq. (3) for every task, as :class:`PD2Inflation` rows."""
    rows = _rows(TaskColumns.of(specs), c, q)
    e_primes, quanta, iterations = _climb(rows, s_pd2, c, q)
    return [PD2Inflation(spec, e_prime, e_quanta, row[2], its)
            for spec, row, e_prime, e_quanta, its
            in zip(specs, rows, e_primes, quanta, iterations)]


def _climb(rows: Sequence[_Row], s_pd2: float, c: int, q: int
           ) -> Tuple[List[int], List[int], List[int]]:
    """Eq. (3) over the quantum count ``E = ceil(e'/q)``: per row, the
    inflated execution ``e'``, the quantum count and the iterations, as
    three parallel lists.

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

    This is the only implementation of the climb: :func:`pd2_inflate_set`
    wraps its lists into :class:`PD2Inflation` rows, and :func:`pd2_search`
    runs it on rows prepared once, once per run of equal ``S_PD2`` among
    its candidates.
    """
    ceil, bisect_after = math.ceil, _BISECT_AFTER
    e_primes: List[int] = []
    quanta: List[int] = []
    iterations: List[int] = []
    for row in rows:
        e, e_quanta, p_quanta, switch_cost = row
        e_prime = e
        lo = e_quanta  # every E below lo fails to cover its demand
        its = 0
        while True:
            its += 1
            # min(E - 1, P - E), without the call
            preemptions = (e_quanta - 1 if e_quanta + e_quanta <= p_quanta + 1
                           else p_quanta - e_quanta)
            if preemptions < 0 or its > bisect_after:
                # Past the period, or a long climb: bisect [lo, P].
                if lo <= p_quanta:
                    e_prime, e_quanta, its = _settle(row, s_pd2, c, q, lo,
                                                     its - 1)
                break
            new_e_prime = ceil(e + e_quanta * s_pd2 + c
                               + preemptions * switch_cost)
            new_quanta = -(-new_e_prime // q)
            if new_quanta == e_quanta:
                e_prime = new_e_prime
                break
            if new_quanta < e_quanta:
                # e_quanta covers: the answer lies in [lo, e_quanta].
                e_prime, e_quanta, its = _settle(row, s_pd2, c, q, lo, its,
                                                 (e_quanta, new_e_prime),
                                                 new_quanta)
                break
            lo = e_quanta + 1
            e_prime, e_quanta = new_e_prime, new_quanta
        e_primes.append(e_prime)
        quanta.append(e_quanta)
        iterations.append(its)
    return e_primes, quanta, iterations


def _settle(row: _Row, s_pd2: float, c: int, q: int, lo: int,
            iterations: int, known: Optional[Tuple[int, int]] = None,
            nxt: Optional[int] = None) -> Tuple[int, int, int]:
    """The least covering ``E`` at or above ``lo`` (see :func:`_climb`),
    every ``E < lo`` being known to fail, as ``(e', E, iterations)``.

    ``known`` is a covering ``(E, demand)`` that bounds the search, else
    it runs up to ``P``; ``nxt`` continues the iteration from ``known``
    while it keeps narrowing the interval.  Bisection relies on ``f``
    being monotone on each branch with steps ``f(E+1) - f(E)`` either all
    at most 1 (the covering ``E`` form a suffix of the branch) or all at
    least 1 (a prefix); each branch is searched for either form.
    """
    e, _, p_quanta, switch_cost = row
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

    def result(e_quanta: int) -> Tuple[int, int, int]:
        d = demand[e_quanta]
        if -(-d // q) != e_quanta:  # covering, but not a fixed point
            d = e_quanta * q
        return d, e_quanta, iterations

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
    return d, -(-d // q), iterations


def pd2_total_weight(inflations: Sequence[PD2Inflation]) -> Fraction:
    """Exact total quantised weight ``sum E/P`` — compare against M.

    The same rational as summing the ``weight`` fractions, minus a gcd
    per task (:func:`~repro.core.rational.exact_sum`).
    """
    return exact_sum([inf.quanta for inf in inflations],
                     [inf.period_quanta for inf in inflations])
