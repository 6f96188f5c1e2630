"""The service's live state: one dynamic PD² system plus cached analysis.

:class:`ServiceState` is the single-threaded heart of the server — every
verb maps to one method here, and the asyncio layer guarantees the
mutating ones run serialised.  It composes three pieces of the library:

* a :class:`~repro.core.dynamic.DynamicPfairSystem` holding the live
  task system (joins gated by Eq. (2), leaves delayed per the paper's
  rules, reweighting as leave-then-rejoin);
* the overhead-aware analyses of :mod:`repro.analysis.schedulability`,
  reporting the minimum processor count under PD² and EDF-FF for every
  requested set (:func:`~repro.campaign.sched.analysis_response`, one
  :func:`~repro.analysis.schedulability.evaluate_task_set` point; a set
  it refuses — a deadline below the period, a critical section — is a
  ``bad-task``);
* an :class:`~repro.util.lru.LRUCache` over those analyses, keyed
  by the canonical task-set hash so repeated queries are O(1).

The cache keyspace is shared with the analysis layer: this instance's
LRU memoises the service-shaped response dicts, while the underlying
``evaluate_task_set`` call consults the process-wide
:data:`repro.analysis.schedulability.ANALYSIS_CACHE` under the *same*
:func:`~repro.analysis.schedulability.task_set_cache_key` digests — so a
task set analysed by a campaign (or another service instance in this
process) is never recomputed from scratch here, and vice versa.

Multi-task admission is check-then-join: the whole request is quantised,
its names checked, and Eq. (2) tested for its summed weight before the
first task joins.  Nothing mutates until every check has passed, so
admission stays all-or-nothing — a rejected request leaves no trace
(verified down to the committed-weight fraction by the test suite) — and
the joins that follow cannot fail, because mutating verbs are serialised.
Task objects are built only for those joins: a dry run checks ``(name,
e, p)`` rows and sums their weights exactly, so it leaves no per-weight
state (window tables) behind in the process.

Time is explicit: the system advances only through the ``advance`` verb,
keeping the service deterministic and replayable.  A wall-clock driver
belongs in deployment glue, not here.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.schedulability import task_set_cache_key
from ..campaign.sched import analysis_response, batch_analyze
from ..core.dynamic import DynamicPfairSystem
from ..core.rational import Weight, exact_sum
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
        #: Task name -> task, for every task ever admitted or queued by a
        #: reweight.  Names are unique over the life of the service
        #: (leaves do not free them: a departed task's history must stay
        #: addressable in traces, and a failed join's name stays taken).
        self._names: Dict[str, PeriodicTask] = {}
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
            result = analysis_response(specs, self.model)
        except ValueError as exc:
            raise ServiceError("bad-task", str(exc)) from exc
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
        batch_analyze` (a process pool per call, worker-death recovery)
        and are cached on the way back.  Invalid sets come back as
        ``{"error": ...}`` entries — one bad set never fails the batch.

        Thread-safety: this method touches only the LRU (internally
        locked) and the immutable model, never the live system, so the
        server may run it off the event loop in an executor.
        """
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

    def _rows(self, specs: Sequence[TaskSpec]) -> List[Tuple[str, int, int]]:
        """Quantise specs into ``(name, e, p)`` rows, naming unnamed ones.

        Raises :class:`ServiceError` when a period is not a multiple of
        the quantum or a name is already taken (uniqueness is checked
        against live state *and* within the request).  No task object is
        built: a dry run needs only the weights.
        """
        rows: List[Tuple[str, int, int]] = []
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
            rows.append((name, e, p))
        return rows

    def _resolve(self, name: str) -> PeriodicTask:
        """The task named ``name``: admitted, queued by a reweight, or
        a queued join cancelled by a leave.  A reweight join that
        :meth:`advance` dropped for want of capacity never joined, so
        its name is unknown too."""
        task = self._names.get(name) if isinstance(name, str) else None
        if task is None:
            raise ServiceError("unknown-task", f"no admitted task {name!r}")
        tid = task.task_id
        if self.system.find_task(tid) is None and \
                self.system.departure_time(tid) is None:
            raise ServiceError(
                "unknown-task",
                f"task {name!r} never joined: its reweight join found no "
                f"capacity")
        return task

    # -- verbs --------------------------------------------------------------

    def admit(self, specs: Sequence[TaskSpec], *,
              dry_run: bool = False) -> Dict[str, Any]:
        """Admission decision for ``specs``, joining them unless rejected
        or ``dry_run``.

        All-or-nothing: every check (quantisation, names, Eq. (2) for
        the whole set) runs before the first join, so either every task
        joins the live system or none does.
        """
        analysis = self.analyze(specs)
        rows = self._rows(specs)
        total = exact_sum([e for _, e, _ in rows], [p for _, _, p in rows])
        new_weight = Weight(total.numerator, total.denominator)
        admitted = (self.system.committed_weight() + new_weight
                    <= self.processors)
        if admitted and not dry_run:
            for name, e, p in rows:
                task = PeriodicTask(e, p, phase=self.system.now, name=name)
                if not self.system.try_join(task):
                    raise ServiceError(
                        "admission-race",
                        f"join of {task.name} failed after the set "
                        f"passed Eq. (2)")  # unreachable: serialised
                self._names[task.name] = task
        return {
            "admitted": admitted,
            "dry_run": dry_run,
            "tasks": [name for name, _, _ in rows],
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
        paper's rules and a replacement joins at its departure slot, or
        now if that slot has passed."""
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
        self._names[new_task.name] = new_task
        return {"old": name, "new": new_task.name, "joins_at": departure,
                **self._capacity_fields()}

    def advance(self, slots: int) -> Dict[str, Any]:
        """Advance the live schedule by ``slots`` quanta, at most
        :data:`~repro.service.protocol.MAX_ADVANCE_SLOTS`.

        A queued reweight join can fail here if intervening admissions
        consumed the freed capacity; such a join is dropped and reported
        in ``failed_joins``, not raised — its slot still elapses, so
        ``now`` always moves by exactly ``slots``.
        """
        if isinstance(slots, bool) or not isinstance(slots, int) \
                or not 1 <= slots <= MAX_ADVANCE_SLOTS:
            raise ServiceError("bad-request",
                               f"'slots' must be an integer in "
                               f"[1, {MAX_ADVANCE_SLOTS}], got {slots!r}")
        failed_joins = self.system.advance(slots)
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
