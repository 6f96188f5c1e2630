"""The service's live state: one dynamic PD² system plus cached analysis.

:class:`ServiceState` is the single-threaded heart of the server — every
verb maps to one method here, and the asyncio layer guarantees the
mutating ones run serialised.  It composes three pieces of the library:

* a :class:`~repro.core.dynamic.DynamicPfairSystem` holding the live
  task system (joins gated by Eq. (2), leaves delayed per the paper's
  rules, reweighting as leave-then-rejoin);
* the overhead-aware analyses of :mod:`repro.analysis.schedulability`,
  reporting the minimum processor count under PD² and EDF-FF for every
  requested set;
* an :class:`~repro.util.lru.LRUCache` over those analyses, keyed
  by the canonical task-set hash so repeated queries are O(1).

The cache keyspace is shared with the analysis layer: this instance's
LRU memoises the service-shaped response dicts, while the underlying
``pd2_min_processors`` / ``edf_ff_min_processors`` calls consult the
process-wide :data:`repro.analysis.schedulability.ANALYSIS_CACHE` under
the *same* :func:`~repro.analysis.schedulability.task_set_cache_key`
digests — so a task set analysed by a campaign (or another service
instance in this process) is never recomputed from scratch here, and
vice versa.

Multi-task admission is transactional: the system is snapshotted, the
joins attempted one by one, and on any failure the snapshot is restored —
a rejected request leaves no trace (verified down to the committed-weight
fraction by the test suite).

Time is explicit: the system advances only through the ``advance`` verb,
keeping the service deterministic and replayable.  A wall-clock driver
belongs in deployment glue, not here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.schedulability import (edf_ff_min_processors,
                                       pd2_min_processors, task_set_cache_key)
from ..core.dynamic import DynamicPfairSystem
from ..core.rational import weight_sum
from ..core.task import PeriodicTask
from ..overheads.model import OverheadModel
from ..util.lru import LRUCache
from ..workload.spec import TaskSpec
from .protocol import MAX_ADVANCE_SLOTS

__all__ = ["ServiceError", "ServiceState"]


class ServiceError(Exception):
    """A request that is well-formed but unserviceable (unknown task,
    bad quantisation, duplicate name); ``code`` goes on the wire."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


class ServiceState:
    """Live admission-control state behind one server instance."""

    def __init__(self, processors: int, *,
                 model: Optional[OverheadModel] = None,
                 cache_capacity: int = 1024) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        self.processors = processors
        self.model = model if model is not None else OverheadModel()
        self.system = DynamicPfairSystem(processors)
        self.cache = LRUCache(cache_capacity)
        #: Task name -> task_id, for every task ever admitted.  Names are
        #: unique over the life of the service (leaves do not free them:
        #: a departed task's history must stay addressable in traces).
        self._names: Dict[str, int] = {}
        self._autoname = itertools.count()

    # -- analysis (cached) --------------------------------------------------

    def analyze(self, specs: Sequence[TaskSpec]) -> Dict[str, Any]:
        """Minimum processors under PD² and EDF-FF, through the cache."""
        key = task_set_cache_key(specs, self.model)
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return {**hit, "cached": True}
        try:
            m_pd2 = pd2_min_processors(specs, self.model)
            m_edf_ff = edf_ff_min_processors(specs, self.model)
        except ValueError as exc:
            raise ServiceError("bad-task", str(exc)) from exc
        result = {
            "m_pd2": m_pd2,
            "m_edf_ff": m_edf_ff,
            "utilization": float(sum(Fraction(s.execution, s.period)
                                     for s in specs)),
            "n_tasks": len(specs),
        }
        if key is not None:
            self.cache.put(key, result)
        return {**result, "cached": False}

    def analyze_batch(self, task_sets: Sequence[Sequence[TaskSpec]],
                      workers: int = 1) -> List[Dict[str, Any]]:
        """Analyse many independent task sets, in input order.

        ``workers`` is positional so the server can ship this bound
        method straight through ``run_in_executor`` (which forwards
        positional arguments only).

        Cache hits are answered from this instance's LRU; the misses go
        through the campaign engine's :func:`~repro.campaign.sched.
        batch_analyze` (warm process pool, worker-death recovery) and
        are cached on the way back.  Invalid sets come back as
        ``{"error": ...}`` entries — one bad set never fails the batch.

        Thread-safety: this method touches only the LRU (internally
        locked) and the immutable model, never the live system, so the
        server may run it off the event loop in an executor.
        """
        from ..campaign.sched import batch_analyze

        keys = [task_set_cache_key(specs, self.model) for specs in task_sets]
        out: List[Optional[Dict[str, Any]]] = [None] * len(task_sets)
        misses: List[int] = []
        for i, key in enumerate(keys):
            hit = self.cache.get(key) if key is not None else None
            if hit is not None:
                out[i] = {**hit, "cached": True}
            else:
                misses.append(i)
        if misses:
            fresh = batch_analyze([task_sets[i] for i in misses],
                                  model=self.model, workers=workers)
            for i, result in zip(misses, fresh):
                if "error" not in result and keys[i] is not None:
                    self.cache.put(keys[i], result)
                out[i] = {**result, "cached": False}
        return [r for r in out if r is not None]  # all filled by now

    # -- conversions --------------------------------------------------------

    def _to_pfair_tasks(self, specs: Sequence[TaskSpec]) -> List[PeriodicTask]:
        """Quantise specs and instantiate them at the current slot.

        Raises :class:`ServiceError` when a period is not a multiple of
        the quantum or a name is already taken (uniqueness is checked
        against live state *and* within the request).
        """
        tasks: List[PeriodicTask] = []
        seen: set = set()
        for spec in specs:
            try:
                e, p = spec.scaled_quanta(self.model.quantum)
            except ValueError as exc:
                raise ServiceError("bad-task", str(exc)) from exc
            if e > p:
                raise ServiceError(
                    "bad-task",
                    f"{spec.name or 'task'}: execution quantises to {e} "
                    f"quanta, above its period {p}")
            name = spec.name or f"task{next(self._autoname)}"
            if name in self._names or name in seen:
                raise ServiceError("duplicate-name",
                                   f"task name {name!r} already admitted")
            seen.add(name)
            tasks.append(PeriodicTask(e, p, phase=self.system.now, name=name))
        return tasks

    def _resolve(self, name: str) -> PeriodicTask:
        if not isinstance(name, str) or name not in self._names:
            raise ServiceError("unknown-task", f"no admitted task {name!r}")
        task = self.system.find_task(self._names[name])
        assert task is not None  # _names only maps admitted tasks
        return task

    # -- verbs --------------------------------------------------------------

    def admit(self, specs: Sequence[TaskSpec], *,
              dry_run: bool = False) -> Dict[str, Any]:
        """Admission decision for ``specs``, joining them unless rejected
        or ``dry_run``.

        All-or-nothing: either every task joins the live system or none
        does (snapshot/restore makes partial failure unobservable).
        """
        analysis = self.analyze(specs)
        tasks = self._to_pfair_tasks(specs)
        new_weight = weight_sum(t.weight for t in tasks)
        admitted = (self.system.committed_weight() + new_weight
                    <= self.processors)
        if admitted and not dry_run:
            snap = self.system.snapshot()
            try:
                for task in tasks:
                    if not self.system.try_join(task):
                        raise ServiceError(
                            "admission-race",
                            f"join of {task.name} failed after the set "
                            f"passed Eq. (2)")  # unreachable: serialised
            except BaseException:
                self.system.restore(snap)
                raise
            for task in tasks:
                self._names[task.name] = task.task_id
        return {
            "admitted": admitted,
            "dry_run": dry_run,
            "tasks": [t.name for t in tasks],
            "requested_weight": str(new_weight),
            "analysis": analysis,
            **self._capacity_fields(),
        }

    def leave(self, names: Sequence[str]) -> Dict[str, Any]:
        """Begin the departure of each named task (idempotent); reports
        the slot at which each task's weight is freed."""
        if not names:
            raise ServiceError("bad-request", "'names' must be non-empty")
        tasks = [self._resolve(n) for n in names]  # resolve all before any
        departures = {t.name: self.system.request_leave(t) for t in tasks}
        return {"departures": departures, **self._capacity_fields()}

    def reweight(self, name: str, execution: int, period: int, *,
                 new_name: Optional[str] = None) -> Dict[str, Any]:
        """Change ``name``'s weight (ticks): the old task leaves under the
        paper's rules and a replacement joins at its departure slot."""
        task = self._resolve(name)
        spec_name = new_name or f"{name}'"
        if spec_name in self._names:
            raise ServiceError("duplicate-name",
                               f"task name {spec_name!r} already admitted")
        try:
            spec = TaskSpec(execution, period, name=spec_name)
            e, p = spec.scaled_quanta(self.model.quantum)
        except ValueError as exc:
            raise ServiceError("bad-task", str(exc)) from exc
        departure, new_task = self.system.reweight(task, e, p, name=spec_name)
        self._names[new_task.name] = new_task.task_id
        return {"old": name, "new": new_task.name, "joins_at": departure,
                **self._capacity_fields()}

    def advance(self, slots: int) -> Dict[str, Any]:
        """Advance the live schedule by ``slots`` quanta, at most
        :data:`~repro.service.protocol.MAX_ADVANCE_SLOTS`.

        A queued reweight join can fail here if intervening admissions
        consumed the freed capacity; such failures are reported, not
        raised — the slot still elapses.
        """
        if isinstance(slots, bool) or not isinstance(slots, int) \
                or not 1 <= slots <= MAX_ADVANCE_SLOTS:
            raise ServiceError("bad-request",
                               f"'slots' must be an integer in "
                               f"[1, {MAX_ADVANCE_SLOTS}], got {slots!r}")
        from ..core.dynamic import AdmissionError

        failed_joins: List[str] = []
        for _ in range(slots):
            try:
                self.system.advance(1)
            except AdmissionError as exc:
                failed_joins.append(str(exc))
        return {"now": self.system.now, "failed_joins": failed_joins,
                "misses": self.system.sim.stats.miss_count,
                **self._capacity_fields()}

    def describe(self) -> Dict[str, Any]:
        """Current state: time, capacity, Eq. (2) status, and the tasks."""
        tasks = []
        for task in self.system.tasks():
            tasks.append({
                "name": task.name,
                "weight": str(task.weight),
                "departs_at": self.system.departure_time(task.task_id),
            })
        return {"now": self.system.now, "processors": self.processors,
                "tasks": tasks, "misses": self.system.sim.stats.miss_count,
                **self._capacity_fields()}

    # -- helpers ------------------------------------------------------------

    def _capacity_fields(self) -> Dict[str, Any]:
        committed = self.system.committed_weight()
        return {
            "committed_weight": str(committed),
            "committed_weight_float": float(committed),
            "capacity": self.processors,
            "feasible": committed <= self.processors,
            "now": self.system.now,
        }
