"""Fault-tolerant shard dispatch: retry, timeout, worker-death recovery.

Two layers live here.  :func:`dispatch_jobs` is the generic engine: it
pushes picklable jobs through a process pool of its own with per-job
deadlines, bounded retry with exponential backoff, and
``BrokenProcessPool`` recovery — when a worker dies it resubmits the
lost jobs, not the run.  Each call builds its pool with
:func:`new_process_pool` and shuts it down before returning, so
concurrent callers (the CLI, the service's batch verb, worker nodes)
never share or rebuild each other's executors.
:class:`CampaignRunner` specialises it for schedulability campaigns:
shards come from :func:`~repro.campaign.spec.plan_shards`, every
finished shard spools atomically into a
:class:`~repro.campaign.checkpoint.CheckpointStore`, and a
:class:`~repro.campaign.progress.ProgressTracker` keeps ``status.json``
current for ``repro campaign status`` — to within
``status_interval_seconds`` plus one shard while the run is live, and
exact once it ends.  The service's batch-analyze path
reuses :func:`dispatch_jobs` directly (see :func:`repro.campaign.sched.
batch_analyze`), so both consumers share one recovery policy.

Every campaign, local or on a worker fleet, runs through
:class:`CampaignRunner`.  A fleet run hands it a :class:`Dispatcher`
(the distributed coordinator) in place of :func:`dispatch_jobs`;
restoring, checkpointing, status writes and
:class:`CampaignIncomplete` stay here, shared by both kinds of run.

Failure semantics, in one place:

* **error** — the job raised: charged against its ``max_retries``
  budget, resubmitted after ``backoff * 2**(failures-1)`` seconds; over
  budget, the job is marked failed, the rest of the run continues, and
  the caller gets the failed ids (:class:`CampaignIncomplete` from the
  runner — the run directory stays valid, so ``resume`` retries only
  the failures).
* **timeout** — the job outlived ``shard_timeout`` (measured from
  submit): the attempt is abandoned and the job resubmitted, charged as
  an error.  The abandoned attempt cannot be killed (executors expose no
  per-task cancel once running) and may finish later; its late result is
  discarded, which is sound because shards are deterministic — both
  attempts compute the same points.  Timeouts apply only when
  ``workers > 1``.
* **worker death** — ``BrokenProcessPool`` poisons the whole executor:
  the call's pool is replaced, and *every* in-flight job is
  resubmitted without touching its retry budget (the guilty shard is
  indistinguishable from innocent siblings that merely shared the pool).
  Repeated waves are bounded by ``max_pool_rebuilds``; past that the
  run gives up on whatever is unfinished.

Each job given up on keeps its last cause (:class:`FailedJobs`): the
exception's type and text, the timeout, or the worker death.
:class:`CampaignIncomplete` and ``batch_analyze``'s per-set ``"error"``
name it: a job the pool cannot pickle fails every attempt with
``TypeError: cannot pickle '_thread.lock' object``, and the caller
reads exactly that.

This is the single module in ``repro.campaign`` allowed to read clocks
(staticcheck R002 exempts exactly this file): ``time.monotonic`` for
deadlines and throughput, wall-clock only for run-metadata timestamps.
Everything downstream of the clock — planning, checkpoint content,
assembly — stays deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from datetime import datetime, timezone
from multiprocessing import process as mp_process
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Protocol, Sequence, Set, Tuple)

from ..analysis.schedulability import SchedulabilityPoint
from ..overheads.model import OverheadModel
from .checkpoint import CheckpointStore, RunDirError
from .progress import ProgressTracker
from .spec import GridLike

__all__ = ["RunnerConfig", "CampaignRunner", "CampaignIncomplete",
           "Dispatcher", "FailedJobs", "dispatch_jobs", "new_process_pool"]


@dataclass(frozen=True)
class RunnerConfig:
    """Dispatch policy knobs (see the module docstring for semantics)."""

    workers: int = 1
    shard_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_seconds: float = 0.25
    max_pool_rebuilds: int = 3
    status_interval_seconds: float = 2.0
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive when set")


class FailedJobs(List[str]):
    """The sorted keys of the jobs :func:`dispatch_jobs` gave up on,
    with ``causes[key]`` the last failure of each: an exception's type
    and text, a timeout, or a worker death past the rebuild budget."""

    def __init__(self, causes: Mapping[str, str]) -> None:
        super().__init__(sorted(causes))
        self.causes = dict(causes)


class CampaignIncomplete(RuntimeError):
    """Some shards exhausted their retry budget.

    The run directory (when there is one) remains valid: completed
    shards are checkpointed, so ``repro campaign resume`` retries only
    the failures once their cause is fixed.  When ``failed`` is a
    :class:`FailedJobs`, the message names each previewed shard's cause.
    """

    def __init__(self, failed: Sequence[str]) -> None:
        self.failed = sorted(failed)
        causes = failed.causes if isinstance(failed, FailedJobs) else {}
        by_cause: Dict[str, List[str]] = {}
        for key in self.failed[:5]:
            by_cause.setdefault(causes.get(key, ""), []).append(key)
        preview = "; ".join(", ".join(keys) + (f" ({cause})" if cause else "")
                            for cause, keys in by_cause.items())
        if len(self.failed) > 5:
            preview += "; ..."
        super().__init__(
            f"{len(self.failed)} shard(s) failed after retries: {preview} "
            f"(completed shards are checkpointed; resume retries failures)")


def _utc_now() -> str:
    """Wall-clock timestamp for run metadata (never for results)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class _Attempt:
    """One in-flight submission of a job."""

    key: str
    attempt: int            # 1-based
    submitted_at: float     # monotonic seconds


def _warm_init() -> None:
    """Pool worker initializer: pay the heavy imports once per worker
    instead of inside the first job's timeout budget."""
    from ..analysis import schedulability  # noqa: F401  (pulls in the chain)


#: Pool workers start as fresh interpreters, never as forks of the
#: caller.  Callers are threaded (a worker node serves each connection
#: on its own thread, each building pools), and a fork copies every file
#: descriptor open at that instant: a worker forked while another
#: thread's pool is between ``os.pipe()`` and closing its child's end
#: keeps that end of a sibling's death-sentinel pipe open, so when the
#: sibling dies its pool never sees the death and the shard waits
#: forever.  A spawned worker inherits only the descriptors it is given,
#: plus the environment at its start.
_POOL_CONTEXT = multiprocessing.get_context("spawn")


def _check_main_file() -> None:
    """Raise ``RuntimeError`` when a spawned worker could not re-import
    ``__main__``.  Spawn imports a ``python -m`` main by module name and
    runs any other main from its ``__file__`` (a ``python -c`` script
    or an interactive session has none, and needs nothing); a script
    read from stdin has ``__file__ = "<stdin>"``, which no worker can
    open, so every worker would die starting and each job would fail as
    a bare worker death."""
    main = sys.modules["__main__"]
    name = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is not None or name is None:
        return
    path = name
    if not os.path.isabs(path) and mp_process.ORIGINAL_DIR is not None:
        path = os.path.join(mp_process.ORIGINAL_DIR, path)
    if not os.path.exists(path):
        raise RuntimeError(
            f"cannot start pool workers: each re-imports __main__ from its "
            f"file {name!r}, which does not exist (a script read from stdin "
            f"has none); run the script from a file or with python -c")


def new_process_pool(workers: int) -> ProcessPoolExecutor:
    """A fresh executor of ``workers`` warmed, spawned processes (each
    started on a submit that finds no idle worker).  The caller owns
    it: nothing else holds or replaces it, and the caller shuts it
    down.  Raises ``RuntimeError``, before anything is spawned, when
    ``__main__`` names a file that does not exist (a script on stdin),
    since no worker could start."""
    _check_main_file()
    return ProcessPoolExecutor(max_workers=workers, mp_context=_POOL_CONTEXT,
                               initializer=_warm_init)


def _started_pool(workers: int) -> ProcessPoolExecutor:
    """:func:`new_process_pool` with every worker started: one no-op per
    worker starts them all, and waiting for the no-ops keeps interpreter
    start-up out of the first jobs' timeout budgets.  Raises
    ``BrokenProcessPool`` (after shutting the pool down) when a worker
    dies starting."""
    pool = new_process_pool(workers)
    try:
        for fut in [pool.submit(int) for _ in range(workers)]:
            fut.result()
    except BrokenProcessPool:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pool


def _cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _backoff(config: RunnerConfig, failures: int) -> float:
    return config.backoff_seconds * (2 ** max(failures - 1, 0))


def _completion_order(done_futs: Iterable[Any],
                      pending: Mapping[Any, _Attempt]) -> List[Any]:
    """A canonical (sorted-by-key) view of one poll batch.

    ``concurrent.futures.wait`` hands back a *set* of futures —
    completion order, then hash order — and the completion callbacks
    are caller-visible (row emission, retry accounting), so the batch
    is ordered by task key before anything observes it.  Stale futures
    no longer in ``pending`` sort first; the loop discards them anyway.
    """
    return sorted(done_futs,
                  key=lambda f: pending[f].key if f in pending else "")


def _dispatch_serial(order: List[str], jobs: Mapping[str, Any],
                     worker: Callable[[Any], Any], config: RunnerConfig,
                     on_success: Callable[[str, Any, int, float], None],
                     on_retry: Optional[Callable[[str, str], None]]
                     ) -> FailedJobs:
    """In-process dispatch for ``workers == 1`` — same retry budget, no
    pool, no timeouts (a stuck shard would stick the caller regardless).
    Every attempt ends in ``on_success`` or ``on_retry``, so there is no
    separate tick."""
    failed: Dict[str, str] = {}
    for key in order:
        failures = 0
        while True:
            start = time.monotonic()
            try:
                result = worker(jobs[key])
            except Exception as exc:
                failures += 1
                if on_retry is not None:
                    on_retry(key, "error")
                if failures > config.max_retries:
                    failed[key] = _cause(exc)
                    break
                time.sleep(_backoff(config, failures))
                continue
            on_success(key, result, failures + 1,
                       time.monotonic() - start)
            break
    return FailedJobs(failed)


def dispatch_jobs(jobs: Mapping[str, Any],
                  worker: Callable[[Any], Any],
                  config: RunnerConfig, *,
                  on_success: Callable[[str, Any, int, float], None],
                  on_retry: Optional[Callable[[str, str], None]] = None,
                  on_tick: Optional[Callable[[], None]] = None
                  ) -> FailedJobs:
    """Run every job to success or retry exhaustion; return the failed
    keys, sorted, with each one's last cause (:class:`FailedJobs`).

    ``jobs`` maps a stable key to a picklable payload; ``worker`` must be
    a module-level callable (the pool pickles it).  With ``workers > 1``
    the call runs on its own executor, replaced after a worker death.
    On return the executor is shut down and waited for when no attempt
    is still running; an attempt abandoned by a timeout (or by an
    exception out of a callback) is cancelled without waiting, so it
    never delays the caller.  ``on_success(key, result,
    attempts, elapsed)`` fires exactly once per finished job;
    within one poll batch, finished jobs are reported in sorted-key
    order (the batch's membership still depends on completion timing).
    ``on_retry(key, reason)`` fires on every requeue with reason
    ``"error"``, ``"timeout"``, or ``"worker-death"``.  With
    ``workers > 1``, ``on_tick`` fires at least every
    ``status_interval_seconds`` while work is outstanding; serial
    dispatch never calls it, since every attempt already ends in
    ``on_success`` or ``on_retry``.

    Jobs are submitted in sorted-key order, but nothing downstream may
    depend on completion order — the campaign assembler orders by shard
    id, not arrival.
    """
    order = sorted(jobs)
    if not order:
        return FailedJobs({})
    if config.workers <= 1:
        return _dispatch_serial(order, jobs, worker, config,
                                on_success, on_retry)

    #: (not-before monotonic time, key) — work awaiting (re)submission.
    queue: List[Tuple[float, str]] = [(0.0, key) for key in order]
    pending: Dict[Future, _Attempt] = {}
    failures: Dict[str, int] = {}
    finished: Set[str] = set()
    #: Key -> its last failure, for the keys given up on.
    failed: Dict[str, str] = {}
    #: Timed-out attempts, possibly still running in the pool.
    abandoned: List[Future] = []
    rebuilds = 0
    pool: Optional[ProcessPoolExecutor] = None

    def charge(key: str, reason: str, now: float, cause: str) -> None:
        """Budgeted requeue for an error or timeout."""
        failures[key] = failures.get(key, 0) + 1
        if on_retry is not None:
            on_retry(key, reason)
        if failures[key] > config.max_retries:
            failed[key] = cause
        else:
            queue.append((now + _backoff(config, failures[key]), key))

    def handle_pool_death(now: float) -> None:
        """Drop the broken pool (the next submit builds its replacement);
        resubmit in-flight work without charging budgets (guilt is
        unattributable)."""
        nonlocal pool, rebuilds
        rebuilds += 1
        for att in pending.values():
            if att.key not in finished and att.key not in failed:
                if on_retry is not None:
                    on_retry(att.key, "worker-death")
                queue.append((now + config.backoff_seconds, att.key))
        pending.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        if rebuilds > config.max_pool_rebuilds:
            for _, key in queue:
                failed[key] = (f"worker death: the pool broke {rebuilds} "
                               f"times, max_pool_rebuilds="
                               f"{config.max_pool_rebuilds}")
            queue.clear()

    last_tick = time.monotonic()
    try:
        while queue or pending:
            now = time.monotonic()
            due = [item for item in queue if item[0] <= now]
            queue[:] = [item for item in queue if item[0] > now]
            for i, (not_before, key) in enumerate(due):
                if key in finished or key in failed:
                    continue
                try:
                    if pool is None:
                        pool = _started_pool(config.workers)
                    fut = pool.submit(worker, jobs[key])
                except BrokenProcessPool:
                    # Everything not yet submitted goes back too — `due`
                    # was already carved out of the queue, so requeuing
                    # only the current item would silently drop the rest.
                    queue.extend(due[i:])
                    handle_pool_death(now)
                    break
                pending[fut] = _Attempt(key, failures.get(key, 0) + 1, now)

            if pending:
                done_futs, _ = wait(list(pending),
                                    timeout=config.poll_interval_seconds,
                                    return_when=FIRST_COMPLETED)
            else:
                done_futs = set()
                if queue:
                    time.sleep(config.poll_interval_seconds)

            now = time.monotonic()
            died = False
            for fut in _completion_order(done_futs, pending):
                att = pending.pop(fut, None)
                if att is None or att.key in finished or att.key in failed:
                    continue  # stale attempt abandoned by a timeout
                exc = fut.exception()
                if exc is None:
                    finished.add(att.key)
                    on_success(att.key, fut.result(), att.attempt,
                               now - att.submitted_at)
                elif isinstance(exc, BrokenProcessPool):
                    if on_retry is not None:
                        on_retry(att.key, "worker-death")
                    queue.append((now + config.backoff_seconds, att.key))
                    died = True
                else:
                    charge(att.key, "error", now, _cause(exc))
            if died:
                handle_pool_death(now)

            if config.shard_timeout is not None:
                for fut, att in list(pending.items()):
                    if now - att.submitted_at > config.shard_timeout:
                        del pending[fut]
                        fut.cancel()  # best-effort; running tasks persist
                        abandoned.append(fut)
                        charge(att.key, "timeout", now,
                               f"timeout after {config.shard_timeout:g} s")

            if on_tick is not None and \
                    now - last_tick >= config.status_interval_seconds:
                on_tick()
                last_tick = now
    finally:
        if pool is not None:
            # Waiting joins the executor's manager thread here rather than
            # at interpreter exit, where its teardown can race CPython's
            # exit hook on the executor's wakeup pipe.
            busy = bool(pending) or not all(f.done() for f in abandoned)
            pool.shutdown(wait=not busy, cancel_futures=busy)
    return FailedJobs(failed)


class Dispatcher(Protocol):
    """A shard source :class:`CampaignRunner` drives in place of the
    local :func:`dispatch_jobs` (the distributed
    :class:`~repro.distrib.coordinator.Coordinator` is one).

    ``run`` takes the runner's ``{shard_id: (spec, model[, payload])}``
    jobs and returns the failed ids, like :func:`dispatch_jobs` (as a
    plain list, the ids carry no causes); its
    ``on_success`` and ``on_retry`` callbacks take one more argument,
    the name of the worker that produced the result or is charged with
    the retry (``None`` when nobody is).  ``status`` returns extra
    top-level keys for ``status.json``.
    """

    def run(self, jobs: Mapping[str, Any], *,
            on_success: Callable[[str, List[SchedulabilityPoint], int,
                                  float, str], None],
            on_retry: Optional[Callable[[str, str, Optional[str]],
                                        None]] = None,
            on_tick: Optional[Callable[[], None]] = None) -> List[str]: ...

    def status(self) -> Dict[str, Any]: ...


class CampaignRunner:
    """Drive one campaign grid to completion, checkpointing as it goes.

    ``worker`` is the module-level shard evaluator (normally
    :func:`repro.campaign.sched.evaluate_shard`; tests inject
    fault-raising stand-ins).  With a ``store`` the run is durable —
    every finished shard lands in the run directory before the next
    status write, and :meth:`run` with ``resume=True`` restores
    completed shards from disk instead of recomputing them.  Without a
    store the run is purely in-memory (the compatibility path for
    :func:`~repro.campaign.sched.run_schedulability_campaign` callers
    that never name a run directory).

    A ``dispatcher`` replaces the local :func:`dispatch_jobs` (and
    ``worker`` and ``config`` with it): the runner still restores,
    checkpoints, tracks progress and writes status, and additionally
    records which worker produced each shard.
    """

    def __init__(self, grid: GridLike,
                 worker: Callable[[Any], List[SchedulabilityPoint]], *,
                 config: Optional[RunnerConfig] = None,
                 store: Optional[CheckpointStore] = None,
                 model: Optional[OverheadModel] = None,
                 payloads: Optional[Mapping[str, Any]] = None,
                 note: str = "",
                 dispatcher: Optional[Dispatcher] = None) -> None:
        self.grid = grid
        self.worker = worker
        self.config = config or RunnerConfig()
        self.store = store
        self.model = model
        # Per-shard extra job argument (trace-replay window payloads,
        # keyed by shard id).  When set, jobs become (spec, model,
        # payload) triples and the worker must accept them; the payload
        # is pure data derived from the grid, so it never affects the
        # checkpoint format or resume identity.
        self.payloads = payloads
        self.note = note
        self.dispatcher = dispatcher

    def _model_fingerprint(self) -> Optional[str]:
        return None if self.model is None else repr(self.model)

    def run(self, *, resume: bool = False
            ) -> Dict[str, List[SchedulabilityPoint]]:
        """Execute (or finish) the campaign; return points per shard id.

        On ``KeyboardInterrupt`` the final status is written as
        ``"interrupted"`` before the exception propagates — completed
        shards are already on disk, so the run resumes where it stopped.
        """
        shards = self.grid.plan()
        by_id = {s.shard_id: s for s in shards}
        results: Dict[str, List[SchedulabilityPoint]] = {}
        done_before: Set[str] = set()

        if self.store is not None:
            self.store.initialize(self.grid,
                                  model_fingerprint=self._model_fingerprint(),
                                  created=_utc_now(), note=self.note)
            existing = self.store.completed_shards() & set(by_id)
            if existing and not resume:
                raise RunDirError(
                    f"{self.store.run_dir} already holds "
                    f"{len(existing)} completed shard(s); use resume, or "
                    f"a fresh directory for a new run")
            if resume:
                for sid in sorted(existing):
                    results[sid] = self.store.read_shard(sid)
                done_before = existing
        elif resume:
            raise RunDirError("resume requires a run directory")

        todo = [s for s in shards if s.shard_id not in done_before]
        progress = ProgressTracker(
            len(shards), completed_before_start=len(done_before))
        progress.start(time.monotonic())

        last_write: Optional[float] = None

        def write_status(state: str) -> None:
            """Write a snapshot: the first ``"running"`` one and every
            terminal state always, a later ``"running"`` one only once
            ``status_interval_seconds`` have passed since the last
            write, so a run of fast shards does not spend its time
            rewriting ``status.json``."""
            nonlocal last_write
            if self.store is None:
                return
            now = time.monotonic()
            if state == "running" and last_write is not None and \
                    now - last_write < self.config.status_interval_seconds:
                return
            last_write = now
            snap = progress.snapshot(now, state=state, updated=_utc_now())
            if self.dispatcher is not None:
                snap.update(self.dispatcher.status())
            self.store.write_status(snap)

        write_status("running")

        def on_success(key: str, points: List[SchedulabilityPoint],
                       attempts: int, elapsed: float,
                       worker: Optional[str] = None) -> None:
            results[key] = points
            if self.store is not None:
                self.store.write_shard(by_id[key], points,
                                       attempts=attempts,
                                       elapsed_seconds=round(elapsed, 6),
                                       worker=worker)
            progress.record_success(elapsed, worker or "local")
            write_status("running")

        def on_retry(key: str, reason: str,
                     worker: Optional[str] = None) -> None:
            progress.record_retry(reason, worker)
            write_status("running")

        if self.payloads is None:
            jobs: Dict[str, Any] = {s.shard_id: (s, self.model)
                                    for s in todo}
        else:
            jobs = {s.shard_id: (s, self.model,
                                 self.payloads[s.shard_id])
                    for s in todo}
        try:
            if self.dispatcher is None:
                failed = dispatch_jobs(jobs, self.worker, self.config,
                                       on_success=on_success,
                                       on_retry=on_retry,
                                       on_tick=lambda:
                                       write_status("running"))
            else:
                failed = self.dispatcher.run(jobs, on_success=on_success,
                                             on_retry=on_retry,
                                             on_tick=lambda:
                                             write_status("running"))
        except KeyboardInterrupt:
            write_status("interrupted")
            raise
        if failed:
            write_status("failed")
            raise CampaignIncomplete(failed)
        write_status("complete")
        return results
