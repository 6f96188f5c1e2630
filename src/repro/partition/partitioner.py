"""End-to-end partitioners: EDF-FF, RM-FF, and online (dynamic)
partitioning.

``EDF-FF`` — first fit with the exact EDF utilization test — is the
paper's representative of the partitioning approach.  The overhead-aware
variant feeds tasks in decreasing-period order so Eq. (3)'s cache term
``max_{U in P_T} D(U)`` is fixed at admission (see
:class:`~repro.partition.accept.EDFOverheadTest`); the paper calls out this
ordering explicitly.  :func:`edf_ff` packs specs with the generic first
fit and that test; the Fig. 3/4 analysis runs the same decisions on task
columns (:func:`edf_overhead_first_fit`, fed in :func:`edf_ff_order`),
tested against the generic packer.

With ``max_bins`` unbounded, ``.processors`` of :func:`edf_ff` or
:func:`rm_ff` is the smallest M for which first fit succeeds (it never
benefits from extra empty bins); both raise
:class:`~repro.partition.heuristics.PartitionFailure` when some task fits
on no processor.

:class:`OnlinePartitioner` models the dynamic-task discussion of Sec. 5.2:
joins are first-fit admissions against the current assignment (cheap but
may reject sets an offline repacking would fit — that pessimism is the
paper's point); leaves free capacity; :meth:`repartition` performs the
costly full repacking a join-heavy system would periodically need.
"""

from __future__ import annotations

import math
from operator import neg
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.rational import float_sum
from ..workload.spec import TaskColumns, TaskSpec
from .accept import (
    AcceptanceTest,
    EDFOverheadTest,
    EDFUtilizationTest,
    RMHyperbolicTest,
    RMLiuLaylandTest,
    RMResponseTimeTest,
)
from .bins import Partition
from .heuristics import PLACEMENTS, PartitionFailure, PartitionResult, partition

__all__ = [
    "edf_ff",
    "edf_ff_order",
    "edf_overhead_first_fit",
    "rm_ff",
    "OnlinePartitioner",
    "RM_TESTS",
]

RM_TESTS = {
    "liu_layland": RMLiuLaylandTest,
    "hyperbolic": RMHyperbolicTest,
    "response_time": RMResponseTimeTest,
}


def edf_ff(specs: Sequence[TaskSpec], *, max_bins: Optional[int] = None,
           overhead_inflation: Optional[int] = None) -> PartitionResult:
    """EDF-FF packing; overhead-aware when ``overhead_inflation`` (the
    ``2(S_EDF + C)`` term in ticks) is given."""
    if overhead_inflation is None:
        return partition(specs, placement="ff", ordering="given",
                         accept=EDFUtilizationTest(), max_bins=max_bins)
    return partition(specs, placement="ff", ordering="decreasing_period",
                     accept=EDFOverheadTest(overhead_inflation),
                     max_bins=max_bins)


def edf_ff_order(tasks: TaskColumns) -> List[int]:
    """The overhead-aware EDF-FF feed order: task indices by decreasing
    period, then decreasing execution, then name (string order, so
    ``"T10"`` precedes ``"T2"``), then index.

    At equal ``(p, e)`` the name decides which task — and so which
    ``D(T)`` — reaches a bin first.
    """
    return [row[3] for row in sorted(zip(
        map(neg, tasks.period), map(neg, tasks.execution), tasks.name,
        range(len(tasks.period))))]


#: How far a column first-fit bin's spare shadow, a float copy of its
#: spare capacity ``1 - load``, may stray from the exact value before a
#: probe must not trust it.
#:
#: Rounding bound.  The shadow is set from the exact load as
#: ``1.0 - num/den`` (int true division rounds correctly): error at
#: most ``2**-52``.  Each placement subtracts a correctly rounded
#: ``u = e'/p``: error at most ``2**-53 * u`` for the quotient plus
#: ``2**-53 * |result|`` for the subtraction, which is at most
#: ``2**-52`` while ``u`` and the shadow lie in ``[0, 1]``.  After ``n``
#: placements the error is at most ``(n + 1) * 2**-52``; resetting from
#: the exact load every ``_SHADOW_ADDS = 2**20`` placements caps it at
#: ``2**-32 < 2.4e-10``.  Comparing the shadow with a rounded
#: utilization adds at most ``3 * 2**-53`` more, so the total stays
#: below ``2.5e-10``, and a 1e-9 margin covers it four times over.  A
#: shadow that leaves ``[-_SHADOW_MARGIN, 1]`` is reset from the exact
#: load, and an exact load outside that range (above 1 or below 0,
#: which no placement commits) sets it to NaN, which every screen
#: comparison fails, so such a bin is always probed exactly.
_SHADOW_MARGIN = 1e-9
_SHADOW_ADDS = 1 << 20


def _exact_shadow(load_num: int, load_den: int) -> float:
    """The spare-capacity shadow of an exact load ``load_num/load_den``
    (NaN outside the range the rounding bound covers)."""
    spare = 1.0 - load_num / load_den
    return spare if -_SHADOW_MARGIN <= spare <= 1.0 else math.nan


def edf_overhead_first_fit(tasks: TaskColumns, fixed_inflation: int,
                           order: Sequence[int]
                           ) -> Optional[Tuple[int, float, List[int]]]:
    """First fit with the overhead-aware EDF test on task columns, feeding
    the tasks ``order`` names: ``(bins opened, total inflated load,
    bin of each fed task in feed order)``, or ``None`` when a task fits
    nowhere, not even on a bin of its own.  The total is the exact sum
    of every placed ``e'/p``, correctly rounded to a float
    (:func:`~repro.core.rational.float_sum`).

    The decisions are exactly those of the generic first fit
    (:func:`~repro.partition.heuristics.partition`) probing
    :meth:`~repro.partition.accept.EDFOverheadTest.admit` on every bin:
    task ``i`` costs ``e' = e + fixed_inflation + max D`` on a bin, the
    largest ``D(T)`` among its residents, and joins the first bin where
    ``load + e'/p <= 1``.  Each bin is a slot of parallel lists (float
    spare shadow and its placement count, largest ``D``, the feed
    position at which it opened); each placed task's bin and ``e'`` are
    kept in feed order.  A probe is decided on the shadow when it clears
    or misses ``e'/p`` by more than :data:`_SHADOW_MARGIN`, and
    ``misses_any``, the screen for the cheapest cost a bin can charge
    (no cache term), skips a full bin before its own ``e'`` is formed.
    A bin's exact load is formed only for a probe inside the margin (NaN
    included), which then cross-multiplies, or for a shadow reset: from
    its residents, extending the last load formed for the bin, so a
    committed task costs no big-integer arithmetic.

    ``order`` must be non-increasing in period (``ValueError``
    otherwise), so every resident of a bin is in the set ``P_T`` the
    newcomer can preempt; :func:`edf_ff_order` gives the paper's order.
    """
    if fixed_inflation < 0:
        raise ValueError("inflation must be nonnegative")
    execution, period, cache_delay = (tasks.execution, tasks.period,
                                      tasks.cache_delay)
    spares: List[float] = []
    adds: List[int] = []
    delays: List[int] = []
    opened: List[int] = []
    placed: List[int] = []
    e_primes: List[int] = []
    formed: Dict[int, Tuple[int, int, int]] = {}

    def exact_load(k: int) -> Tuple[int, int]:
        """Bin ``k``'s exact load as an unreduced pair: the last one
        formed for it, extended by the tasks placed there since (the
        first time, since the bin opened)."""
        num, den, start = formed.get(k, (0, 1, opened[k]))
        end = len(placed)
        for j in range(start, end):
            if placed[j] == k:
                p_j = period[order[j]]
                num, den = num * p_j + e_primes[j] * den, den * p_j
        formed[k] = num, den, end
        return num, den

    margin, reset_every = _SHADOW_MARGIN, _SHADOW_ADDS
    last_p = None
    for i in order:
        p = period[i]
        if last_p is not None and p > last_p:
            raise ValueError("overhead-aware EDF first fit requires tasks "
                             "in non-increasing period order")
        last_p = p
        e_fixed = execution[i] + fixed_inflation
        misses_any = e_fixed / p - margin
        k = 0
        for spare in spares:
            if not spare < misses_any:
                e_prime = e_fixed + delays[k]
                if e_prime <= p:
                    u = e_prime / p
                    slack = spare - u
                    if slack > margin:
                        break
                    if not slack < -margin:
                        num, den = exact_load(k)
                        if num * p + e_prime * den <= den * p:
                            break
            k += 1
        else:
            if e_fixed > p:
                return None
            e_prime, u = e_fixed, e_fixed / p
            spares.append(1.0)
            adds.append(0)
            delays.append(0)
            opened.append(len(placed))
        placed.append(k)
        e_primes.append(e_prime)
        spare, n = spares[k] - u, adds[k] + 1
        if n < reset_every and -margin <= spare <= 1.0:
            spares[k], adds[k] = spare, n
        else:
            spares[k], adds[k] = _exact_shadow(*exact_load(k)), 0
        if cache_delay[i] > delays[k]:
            delays[k] = cache_delay[i]
    return (len(spares), float_sum(e_primes, [period[i] for i in order]),
            placed)


def rm_ff(specs: Sequence[TaskSpec], *, test: str = "response_time",
          max_bins: Optional[int] = None) -> PartitionResult:
    """RM-FF packing with the chosen uniprocessor RM test."""
    try:
        accept = RM_TESTS[test]()
    except KeyError:
        raise ValueError(f"unknown RM test {test!r}; options: "
                         f"{sorted(RM_TESTS)}") from None
    return partition(specs, placement="ff", ordering="given",
                     accept=accept, max_bins=max_bins)


class OnlinePartitioner:
    """First-fit admission control over a fixed processor count.

    Joins try the existing bins in index order (classic online FF); leaves
    remove the task and refund its committed utilization.  For the
    overhead-aware EDF test, online joins arrive in no particular period
    order, while the test prices a newcomer only against residents it can
    preempt (periods at least its own) and never re-inflates a resident.
    So a join probes only the bins whose residents all have periods at
    least the newcomer's, empty bins included; a bin holding a
    shorter-period resident does not admit it.  ``repartition`` redoes
    the full static packing.
    """

    def __init__(self, processors: int, *,
                 accept: Optional[AcceptanceTest] = None) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        self.accept = accept if accept is not None else EDFUtilizationTest()
        self.partition = Partition()
        for _ in range(processors):
            self.partition.new_bin()
        self._committed: Dict[str, object] = {}

    @property
    def processors(self) -> int:
        return self.partition.processors

    def try_join(self, spec: TaskSpec) -> Optional[int]:
        """Admit ``spec`` by first fit; returns the processor index or
        ``None``."""
        if not spec.name:
            raise ValueError("online tasks need unique names")
        if spec.name in self._committed:
            raise ValueError(f"{spec.name} already admitted")
        bins = self.partition.bins
        if isinstance(self.accept, EDFOverheadTest):
            bins = [b for b in bins
                    if b.max_period is None or spec.period <= b.max_period]
        chosen = PLACEMENTS["ff"](bins, spec, self.accept)
        if chosen is None:
            return None
        b, u = chosen
        b.add(spec, u)
        self._committed[spec.name] = u
        return b.index

    def leave(self, name: str) -> None:
        """Remove a task and refund its committed utilization."""
        u = self._committed.pop(name, None)
        if u is None:
            raise KeyError(f"unknown task {name!r}")
        for b in self.partition.bins:
            for i, t in enumerate(b.tasks):
                if t.name == name:
                    del b.tasks[i]
                    b.load -= u
                    b.rescan_residents()
                    return
        raise AssertionError("committed task missing from all bins")

    def all_specs(self) -> List[TaskSpec]:
        return [t for b in self.partition.bins for t in b.tasks]

    def repartition(self, ordering: Optional[str] = None) -> bool:
        """Full offline repack of the current tasks (the expensive step the
        paper warns dynamic partitioned systems need).  Returns False and
        leaves the assignment unchanged if the repack does not fit."""
        if ordering is None:
            # The overhead-aware EDF test requires decreasing periods;
            # otherwise decreasing utilization (FFD) packs tightest.
            ordering = ("decreasing_period"
                        if isinstance(self.accept, EDFOverheadTest)
                        else "decreasing_utilization")
        specs = self.all_specs()
        try:
            result = partition(
                specs, placement="ff", ordering=ordering,
                accept=self.accept, max_bins=self.processors,
            )
        except PartitionFailure:
            return False
        fresh = Partition()
        for _ in range(self.processors):
            fresh.new_bin()
        self._committed.clear()
        for src in result.partition.bins:
            dst = fresh.bins[src.index]
            for t in src.tasks:
                u = self.accept.admit(dst, t)
                assert u is not None, "repacked bin rejected its own task"
                dst.add(t, u)
                self._committed[t.name] = u
        self.partition = fresh
        return True
