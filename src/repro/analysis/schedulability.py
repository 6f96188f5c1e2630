"""Overhead-aware schedulability: the computations behind Figs. 3 and 4.

For each random task set the paper computes, after Eq. (3) inflation, the
minimum number of processors each approach needs:

* **PD²** — smallest ``M`` with ``sum of quantised inflated weights <= M``
  (Eq. (2)).  The scheduling cost ``S_PD2(N, M)`` grows with ``M``, so the
  search re-inflates at every candidate ``M``; the total weight is
  monotone in ``M``, so the first success is minimal.
* **EDF-FF** — the number of bins first fit opens with the overhead-aware
  EDF acceptance test, tasks fed in decreasing-period order (Sec. 4).

Fig. 4 decomposes the gap between raw utilization and provisioned
processors into named losses (formulas fixed in DESIGN.md §5, since the
paper plots but does not define them):

* ``loss_edf  = (U'_EDF − U) / M_FF``   — capacity lost to EDF-side
  overhead inflation;
* ``loss_ff   = (M_FF − max(1, ceil(U'_EDF))) / M_FF`` — capacity lost
  to bin-packing fragmentation *beyond* the unavoidable whole-processor
  ceiling (any approach, including an ideal packer, needs
  ``ceil(U'_EDF)`` processors, and at least one — counting that slack
  as "partitioning loss" would swamp the curve at small M; the ``max``
  matters only for the empty set, whose one processor loses nothing);
* ``loss_pfair = (U'_PD2 − U) / M_PD2`` — capacity lost to PD² overheads,
  including quantisation.  PD² provisions exactly ``ceil(U'_PD2)``
  processors — it never fragments — so it has no analogue of ``loss_ff``.

where ``U`` is raw utilization, ``U'_EDF`` the packed inflated utilization
and ``U'_PD2`` the total quantised inflated weight.

Both analyses run on task columns
(:class:`~repro.workload.spec.TaskColumns`): one PD² search
(:func:`~repro.overheads.inflation.pd2_search`) and one EDF-FF first fit
(:func:`~repro.partition.partitioner.edf_overhead_first_fit`).  Campaign
shards hand generator columns, and trace-replay shards their rescaled
columns, straight to :func:`evaluate_columns`, which has no result
cache.  :func:`evaluate_task_set` is the one
:class:`~repro.workload.spec.TaskSpec` entry point: the ``compare`` CLI,
the admission service and ``batch-analyze`` all read its point.  It
takes the columns of the specs and adds :data:`ANALYSIS_CACHE`.  The
analyses assume implicit deadlines and independent tasks, so it refuses
a task with a deadline below its period or a critical section
(:mod:`repro.partition.demand` has the exact EDF test for the former).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from ..core.rational import float_sum
from ..overheads.inflation import pd2_search
from ..overheads.model import OverheadModel
from ..partition.partitioner import edf_ff_order, edf_overhead_first_fit
from ..util.lru import LRUCache
from ..util.toggles import analysis_cache_on
from ..workload.spec import TaskColumns, TaskSpec

__all__ = [
    "ANALYSIS_CACHE",
    "SchedulabilityPoint",
    "evaluate_columns",
    "evaluate_task_set",
    "task_set_signature",
    "task_set_cache_key",
]

#: Process-wide schedulability results of :func:`evaluate_task_set`, and
#: hence of the ``compare`` CLI, the admission service's ``analyze`` verb
#: and ``batch-analyze``, keyed by :func:`task_set_cache_key` digests.
#: The service re-analyzes the sets it admits, so the cache turns those
#: repeats into dict lookups.  Campaign and trace-replay shards neither
#: read nor write it: their sets almost never repeat across shards, and
#: a trace shard reuses a repeated pick's point within the shard.
#: Analyses under models whose cost curves cannot be fingerprinted
#: (``task_set_cache_key`` returns ``None``) bypass the cache entirely.
#: Written from three thread domains — the main thread (``compare``,
#: direct ``batch_analyze`` and ``evaluate_task_set`` calls), the
#: ``ServerThread`` event loop (service ``analyze``) and the loop's
#: default-executor thread (the service's ``batch-analyze``) — which is
#: safe because :class:`~repro.util.lru.LRUCache` locks internally
#: (staticcheck R007 verifies exactly this; see docs/CONCURRENCY.md).
ANALYSIS_CACHE = LRUCache(capacity=65536)


def task_set_signature(specs: Sequence[TaskSpec]) -> Tuple:
    """Canonical hashable identity of a task set for result caching.

    Every field that the schedulability analyses read is included; names
    are not (two sets differing only in task names schedule identically).
    The tuple is *sorted*, so permutations of the same multiset of tasks
    share a signature — both analyses are order-insensitive (PD² sums
    weights; overhead-aware EDF-FF re-sorts by decreasing period).
    """
    return tuple(sorted(
        (s.execution, s.period, s.cache_delay,
         s.period if s.deadline is None else s.deadline,  # relative_deadline
         s.max_section, s.resource)
        for s in specs
    ))


def task_set_cache_key(specs: Sequence[TaskSpec],
                       model: OverheadModel) -> Optional[str]:
    """Stable digest keying one ``(task set, overhead model)`` analysis.

    Returns ``None`` when ``model`` carries custom cost curves that cannot
    be fingerprinted (see :meth:`OverheadModel.signature`) — results under
    such a model must not be cached.  The digest is stable across
    processes and Python versions, so it can key on-disk caches too.
    """
    sig = model.signature()
    if sig is None:
        return None
    payload = repr((sig, task_set_signature(specs)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: ``(m, inflated total weight at m, max fixed-point iterations at m)``.
_PD2Result = Tuple[Optional[int], Optional[float], int]
#: ``(processors, packed inflated utilization)``.
_EDFResult = Tuple[Optional[int], Optional[float]]


def _cached(ckey: Tuple, compute: Callable[[], Any]) -> Any:
    """``compute()`` through :data:`ANALYSIS_CACHE` under ``ckey``, whose
    second element is the task-set digest (``None``: do not cache)."""
    if ckey[1] is None:
        return compute()
    hit = ANALYSIS_CACHE.get(ckey)
    if hit is None:
        hit = compute()
        ANALYSIS_CACHE.put(ckey, hit)
    return hit


def _pd2_search(tasks: TaskColumns, model: OverheadModel, cap: int,
                u_total: float) -> _PD2Result:
    """The PD² search on columns, with ``m = None`` when no M up to
    ``cap`` suffices (``u_total`` is the set's utilization ``U``,
    correctly rounded).

    The first candidate ``max(1, ceil(u_total))`` is never above
    ``ceil(U)``, since rounding cannot carry ``U`` past an integer; it
    can be one below when ``U`` sits just above an integer, and then it
    fails Eq. (2) because every inflated weight ``E/P`` is at least its
    ``e/p``.  So the search accepts the same ``M`` with the same
    iteration count as one started from the exact ``ceil(U)``.
    """
    found = pd2_search(tasks, model, max(1, math.ceil(u_total)), cap)
    if found is None:
        return None, None, 0
    return found


def _edf_ff_pack(tasks: TaskColumns, model: OverheadModel) -> _EDFResult:
    """The overhead-aware EDF-FF packing on columns, ``(None, None)`` when
    some task fits on no processor."""
    packed = edf_overhead_first_fit(
        tasks, model.edf_fixed_inflation(len(tasks.period)),
        edf_ff_order(tasks))
    if packed is None:
        return None, None
    return packed[0], packed[1]


@dataclass(frozen=True)
class SchedulabilityPoint:
    """Everything Figs. 3 and 4 need about one task set."""

    n_tasks: int
    utilization: float          # raw U
    m_pd2: Optional[int]
    m_ff: Optional[int]
    inflated_u_pd2: Optional[float]   # U'_PD2 at m_pd2
    inflated_u_edf: Optional[float]   # U'_EDF as packed by FF
    pd2_iterations_max: int            # Eq. (3) fixed-point iteration count

    @property
    def loss_pfair(self) -> Optional[float]:
        if self.m_pd2 is None or self.inflated_u_pd2 is None:
            return None
        return (self.inflated_u_pd2 - self.utilization) / self.m_pd2

    @property
    def loss_edf(self) -> Optional[float]:
        if self.m_ff is None or self.inflated_u_edf is None:
            return None
        return (self.inflated_u_edf - self.utilization) / self.m_ff

    @property
    def loss_ff(self) -> Optional[float]:
        if self.m_ff is None or self.inflated_u_edf is None:
            return None
        return (self.m_ff - max(1, math.ceil(self.inflated_u_edf))) / self.m_ff


def evaluate_columns(tasks: TaskColumns,
                     model: OverheadModel) -> SchedulabilityPoint:
    """Compute the Fig. 3/Fig. 4 quantities for one task set given as
    columns — the campaign and trace-replay path, with no result cache
    (their sets practically never repeat across shards, so a key would
    be pure cost).

    The empty set needs one processor either way and loses nothing to
    inflation.
    """
    return _evaluate(tasks, model, None)


def evaluate_task_set(specs: Sequence[TaskSpec],
                      model: OverheadModel) -> SchedulabilityPoint:
    """:func:`evaluate_columns` on the columns of ``specs``, through
    :data:`ANALYSIS_CACHE` keyed by :func:`task_set_cache_key`.

    Raises ``ValueError``, naming the task, when a task has a deadline
    below its period or a critical section: the columns cannot carry
    either, and the analyses would answer for a different set.  The
    check runs before the key, so a refused set is never cached.  The
    key is ``None`` (do not cache) while
    :func:`repro.util.toggles.set_fastpath` has the cache off.
    """
    for k, s in enumerate(specs):
        label = s.name or f"task #{k}"
        if s.deadline is not None and s.deadline < s.period:
            raise ValueError(
                f"{label}: deadline {s.deadline} is below its period "
                f"{s.period}; the analysis needs implicit deadlines")
        if s.max_section:
            raise ValueError(
                f"{label}: critical sections (max_section "
                f"{s.max_section}) are not analysed")
    digest = (task_set_cache_key(specs, model) if analysis_cache_on()
              else None)
    return _evaluate(TaskColumns.of(specs), model, digest)


def _evaluate(tasks: TaskColumns, model: OverheadModel,
              digest: Optional[str]) -> SchedulabilityPoint:
    """One point, its analyses cached under ``digest`` (``None``: not)."""
    n = len(tasks.period)
    u = float_sum(tasks.execution, tasks.period)
    if n:
        pd2 = _cached(("pd2", digest, n),
                      lambda: _pd2_search(tasks, model, n, u))
        edf = _cached(("edfff", digest), lambda: _edf_ff_pack(tasks, model))
    else:
        pd2, edf = (1, 0.0, 0), (1, 0.0)
    return SchedulabilityPoint(
        n_tasks=n,
        utilization=u,
        m_pd2=pd2[0],
        m_ff=edf[0],
        inflated_u_pd2=pd2[1],
        inflated_u_edf=edf[1],
        pd2_iterations_max=pd2[2],
    )
