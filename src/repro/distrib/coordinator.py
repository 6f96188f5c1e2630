"""The coordinator: lease shards to a fleet, survive the fleet.

One :class:`Coordinator` drives one campaign's unfinished shards to
completion across worker nodes (``repro worker --serve``).  It is the
:class:`~repro.campaign.runner.Dispatcher` a fleet run hands to
:class:`~repro.campaign.runner.CampaignRunner` in place of the local
pool, so restoring, checkpointing and status writes stay in the runner.
Local pool slots join a fleet as one more node: the CLI starts an
in-process :class:`~repro.distrib.worker.WorkerServer` on a loopback
port.

The design is lease-based, not push-based: every connection *slot*
(one per pool job on each node) pulls the next pending shard from the
:class:`~repro.distrib.lease.LeaseTable`, ships it over the wire, and
blocks reading frames; the table's deadlines — pushed forward by the
worker's heartbeat frames — are what detect dead, partitioned, or
wedged nodes, and an expired or lost lease simply re-pends its shard
for whoever is alive.  Because
shards are deterministic, the first result to arrive is accepted and
every later duplicate is discarded unread (see ``lease.py`` for the
soundness argument).

Failure semantics mirror the local runner's (``campaign/runner.py``):

* **error** — the worker answered ``ok: false``: budgeted against the
  shard's ``max_retries``, then failed (the run directory stays
  resumable).
* **expiry / lost node** — the lease deadline passed, or the connection
  died: unbudgeted re-lease, exactly like local worker-death recovery
  (the shard did nothing wrong).
* **no sources left** — every node is gone: outstanding shards are
  abandoned and reported as failed rather than waiting forever.

Results flow through a **bounded** queue: slot threads block once
``queue_capacity`` results are waiting for the coordinator thread to
drain (checkpointing is the slow side on huge grids), so a fast fleet
applies backpressure instead of growing the heap.  Stall counts are
surfaced in :meth:`Coordinator.stats` and ``status.json``.

Thread model: N slot threads (one per pool job on each node) produce
into the queue; the caller's thread runs :meth:`Coordinator.run` (from
``CampaignRunner.run``) and is the only consumer and, through the
runner's callbacks, the only writer of checkpoints.  All shared state
(the lease table, counters) is guarded by ``self._lock``.  This file
reads clocks (deadlines, throughput) and is R002 clock-exempt like
``campaign/runner.py``; shard *results* never depend on them.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..analysis.schedulability import SchedulabilityPoint
from ..service.protocol import ProtocolError, decode_line, encode
from .lease import LeaseTable
from .wire import (WORKER_PROTOCOL_VERSION, is_heartbeat, model_to_wire,
                   points_from_wire, shard_run_request)

__all__ = ["NodeSpec", "parse_worker_nodes", "DistribConfig",
           "DistribError", "Coordinator"]

#: Callback fired once per accepted shard result:
#: ``(shard_id, points, attempts, elapsed_seconds, worker)``.
OnSuccess = Callable[[str, List[SchedulabilityPoint], int, float, str], None]
#: Callback fired on every requeue: ``(shard_id, reason, worker)``.
OnRetry = Callable[[str, str, Optional[str]], None]


class DistribError(RuntimeError):
    """A distributed run could not start or lost its whole fleet."""


@dataclass(frozen=True)
class NodeSpec:
    """One worker node address."""

    host: str
    port: int

    @property
    def label(self) -> str:
        """The node's name in leases, attribution, and status output."""
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "NodeSpec":
        """Parse ``host:port`` (the CLI ``--workers`` element form)."""
        host, sep, port = text.strip().rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"worker node must be host:port, got {text!r}")
        return cls(host=host, port=int(port))


def parse_worker_nodes(text: str) -> List[NodeSpec]:
    """Parse the CLI's ``--workers host1:port,host2:port`` list."""
    nodes = [NodeSpec.parse(part)
             for part in text.split(",") if part.strip()]
    if not nodes:
        raise ValueError("empty worker node list")
    if len({n.label for n in nodes}) != len(nodes):
        raise ValueError("duplicate worker nodes in list")
    return nodes


@dataclass(frozen=True)
class DistribConfig:
    """Coordination policy knobs.

    ``lease_timeout`` is the *soft* per-shard deadline — it must exceed
    the workers' heartbeat interval (1 s by default) by a comfortable
    factor, since heartbeats are what keep an honest long shard's lease
    alive.  ``shard_deadline`` is the optional *hard* cap a heartbeating
    but wedged node cannot extend.  ``queue_capacity`` bounds the
    result queue (backpressure — see the module docstring).
    """

    lease_timeout: float = 15.0
    shard_deadline: Optional[float] = None
    connect_timeout: float = 5.0
    max_retries: int = 2
    queue_capacity: int = 64
    poll_interval_seconds: float = 0.05
    status_interval_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.shard_deadline is not None and \
                self.shard_deadline <= self.lease_timeout:
            raise ValueError(
                "shard_deadline (hard) must exceed lease_timeout (soft)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")


#: Result-queue items: ("done", worker, shard, epoch, points, elapsed),
#: ("fail", worker, shard, epoch, message), or ("lost", worker, detail).
_Event = Tuple[Any, ...]


class Coordinator:
    """Distributed dispatch of one campaign's unfinished shards.

    All shared state is guarded by ``self._lock``; slot threads touch it
    only through the small ``_next_lease`` / ``_note_heartbeat`` /
    ``_emit`` methods, and the run loop is the single consumer of the
    result queue and single caller of the success/retry callbacks (so
    checkpoint writes stay single-writer, as the store requires).
    """

    def __init__(self, nodes: Sequence[NodeSpec],
                 config: Optional[DistribConfig] = None) -> None:
        if not nodes:
            raise DistribError(
                "no shard sources: give at least one worker node")
        self.nodes = tuple(nodes)
        self.config = config or DistribConfig()
        self._lock = threading.Lock()
        #: The current run's ``(spec, model[, payload])`` jobs by shard
        #: id.  Payloads (trace-replay windows) ride inside each
        #: shard-run frame, so workers stay stateless and any node can
        #: take any lease.
        self._jobs: Dict[str, Tuple[Any, ...]] = {}
        self._table = LeaseTable([])
        self._results: "queue.Queue[_Event]" = queue.Queue(
            maxsize=self.config.queue_capacity)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._sockets: List[socket.socket] = []
        self._sources = 0          # live slot threads
        self._queue_stalls = 0     # puts that found the queue full
        self._expiries = 0
        self._lost_leases = 0

    # -- slot-thread helpers (each takes the lock briefly) ------------

    def _next_lease(self, worker: str
                    ) -> Optional[Tuple[Tuple[Any, ...], int]]:
        """Lease the next pending shard's job to ``worker`` (None when
        idle)."""
        with self._lock:
            lease = self._table.lease(
                worker, time.monotonic(), self.config.lease_timeout,
                self.config.shard_deadline)
            if lease is None:
                return None
            return self._jobs[lease.shard_id], lease.epoch

    def _note_heartbeat(self, worker: str) -> None:
        with self._lock:
            self._table.heartbeat(worker, time.monotonic(),
                                  self.config.lease_timeout)

    def _emit(self, event: _Event) -> None:
        """Queue one event, blocking when the coordinator is behind
        (the backpressure point — stalls are counted, never dropped)."""
        try:
            self._results.put_nowait(event)
        except queue.Full:
            with self._lock:
                self._queue_stalls += 1
            self._results.put(event)

    def _source_started(self) -> None:
        with self._lock:
            self._sources += 1

    def _source_stopped(self) -> None:
        with self._lock:
            self._sources -= 1

    # -- slots --------------------------------------------------------

    def _connect(self, node: NodeSpec) -> socket.socket:
        """Open, version-check, and register one connection to a node."""
        sock = socket.create_connection(
            (node.host, node.port), timeout=self.config.connect_timeout)
        with sock.makefile("rwb") as stream:
            stream.write(encode({"id": 0, "verb": "ping"}))
            stream.flush()
            resp = decode_line(stream.readline())
        if not resp.get("ok") or resp.get("role") != "worker":
            sock.close()
            raise DistribError(f"{node.label} is not a repro worker node")
        if resp.get("version") != WORKER_PROTOCOL_VERSION:
            sock.close()
            raise DistribError(
                f"{node.label} speaks worker protocol "
                f"{resp.get('version')!r}, need {WORKER_PROTOCOL_VERSION}")
        with self._lock:
            self._sockets.append(sock)
        return sock

    def _probe_jobs(self, node: NodeSpec) -> int:
        """Ask a node how many pool jobs it runs (= slots to open)."""
        sock = self._connect(node)
        try:
            with sock.makefile("rwb") as stream:
                stream.write(encode({"id": 0, "verb": "worker-stats"}))
                stream.flush()
                resp = decode_line(stream.readline())
        finally:
            sock.close()
            with self._lock:
                if sock in self._sockets:
                    self._sockets.remove(sock)
        jobs = resp.get("jobs")
        if not resp.get("ok") or not isinstance(jobs, int) or jobs < 1:
            raise DistribError(f"{node.label}: bad worker-stats response")
        return jobs

    def _remote_slot(self, node: NodeSpec, slot: int) -> None:
        """One connection's lease→ship→collect loop (slot thread body)."""
        worker = node.label
        self._source_started()
        try:
            sock = self._connect(node)
        except (OSError, DistribError, ProtocolError) as exc:
            self._source_stopped()
            self._emit(("lost", worker, f"connect: {exc}"))
            return
        # Reads block on worker heartbeats (1 s cadence); a silent
        # connection for a whole lease period means the node is gone.
        sock.settimeout(self.config.lease_timeout)
        try:
            with sock.makefile("rwb") as stream:
                while not self._stop.is_set():
                    leased = self._next_lease(worker)
                    if leased is None:
                        time.sleep(self.config.poll_interval_seconds)
                        continue
                    (spec, model, *payload), epoch = leased
                    trace = payload[0].to_wire() if payload else None
                    stream.write(encode(
                        {**shard_run_request(spec, model, trace),
                         "id": epoch}))
                    stream.flush()
                    started = time.monotonic()
                    while True:
                        resp = decode_line(stream.readline())
                        if is_heartbeat(resp):
                            self._note_heartbeat(worker)
                            continue
                        break
                    if resp.get("ok"):
                        self._emit(("done", worker, spec.shard_id, epoch,
                                    points_from_wire(resp.get("points")),
                                    time.monotonic() - started))
                    else:
                        err = resp.get("error") or {}
                        self._emit(("fail", worker, spec.shard_id, epoch,
                                    f"{err.get('code', 'error')}: "
                                    f"{err.get('message', '')}"))
        except (OSError, ValueError, ProtocolError) as exc:
            if not self._stop.is_set():
                self._emit(("lost", worker, f"{type(exc).__name__}: {exc}"))
        finally:
            self._source_stopped()
            sock.close()

    # -- the run loop (caller's thread; single consumer) --------------

    def run(self, jobs: Mapping[str, Tuple[Any, ...]], *,
            on_success: OnSuccess,
            on_retry: Optional[OnRetry] = None,
            on_tick: Optional[Callable[[], None]] = None) -> List[str]:
        """Drive every job to success or retry exhaustion.

        ``jobs`` maps shard ids to the runner's ``(spec, model[,
        payload])`` tuples.  ``on_success(shard_id, points, attempts,
        elapsed, worker)`` fires exactly once per shard, on this thread,
        in arrival order (never for discarded duplicates).
        ``on_retry(shard_id, reason, worker)`` fires on every requeue
        with reason ``"error"``, ``"expired"``, or ``"worker-lost"``.
        Returns the failed shard ids (empty on full success).  With no
        jobs no node is contacted.
        """
        if not jobs:
            return []
        # Fail fast on models that cannot cross the wire (custom
        # callables have no signature) — before any node is touched.
        for job in jobs.values():
            model_to_wire(job[1])
        cfg = self.config
        with self._lock:
            self._jobs = dict(jobs)
            self._table = LeaseTable(list(jobs))
        self._stop.clear()
        for node in self.nodes:
            slots = self._probe_jobs(node)  # raises on a dead/alien node
            for slot in range(slots):
                self._threads.append(threading.Thread(
                    target=self._remote_slot, args=(node, slot),
                    name=f"repro-distrib-{node.label}-{slot}", daemon=True))
        for thread in self._threads:
            thread.start()

        attempts: Dict[str, int] = {}
        last_tick = time.monotonic()
        try:
            while True:
                with self._lock:
                    if self._table.finished:
                        break
                    sources = self._sources
                    outstanding = self._table.outstanding
                if sources == 0 and outstanding > 0:
                    # The whole fleet is gone: fail what's left loudly
                    # rather than spinning (the run dir stays resumable).
                    with self._lock:
                        abandoned = self._table.abandon_outstanding()
                    if on_retry is not None:
                        for sid in sorted(abandoned):
                            on_retry(sid, "worker-lost", None)
                    break
                try:
                    # Arrival order is thread-scheduling order, and
                    # _handle is accept-first: the first completion for
                    # a shard wins and duplicates are discarded, so any
                    # arrival order yields the same checkpoint set (the
                    # run dir is keyed by shard id, not event order).
                    event = self._results.get(
                        timeout=cfg.poll_interval_seconds)
                except queue.Empty:
                    event = None
                while event is not None:
                    self._handle(event, attempts, on_success, on_retry)
                    try:
                        # Same accept-first argument as above.
                        event = self._results.get_nowait()
                    except queue.Empty:
                        event = None

                now = time.monotonic()
                with self._lock:
                    expired = self._table.expire(now)
                    self._expiries += len(expired)
                if on_retry is not None:
                    for sid, worker in expired:
                        on_retry(sid, "expired", worker)
                if on_tick is not None and \
                        now - last_tick >= cfg.status_interval_seconds:
                    on_tick()
                    last_tick = now
        finally:
            self.close()
        with self._lock:
            return sorted(self._table.failed)

    def _handle(self, event: _Event, attempts: Dict[str, int],
                on_success: OnSuccess,
                on_retry: Optional[OnRetry]) -> None:
        """Apply one slot-thread event to the table (lock held briefly;
        callbacks run outside it)."""
        kind = event[0]
        if kind == "done":
            _, worker, shard_id, epoch, points, elapsed = event
            attempts[shard_id] = attempts.get(shard_id, 0) + 1
            with self._lock:
                accepted = self._table.complete(shard_id, worker, epoch)
            if accepted:
                on_success(shard_id, points, attempts[shard_id],
                           elapsed, worker)
        elif kind == "fail":
            _, worker, shard_id, epoch, _message = event
            attempts[shard_id] = attempts.get(shard_id, 0) + 1
            with self._lock:
                self._table.fail(shard_id, epoch, self.config.max_retries)
            if on_retry is not None:
                on_retry(shard_id, "error", worker)
        elif kind == "lost":
            _, worker, _detail = event
            with self._lock:
                dropped = self._table.drop_worker(worker)
                self._lost_leases += len(dropped)
            if on_retry is not None:
                for sid in dropped:
                    on_retry(sid, "worker-lost", worker)

    def close(self) -> None:
        """Stop slot threads and close every connection (idempotent).

        Draining continues while threads wind down so none stays blocked
        on a full result queue.
        """
        self._stop.set()
        with self._lock:
            sockets, self._sockets = self._sockets, []
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for thread in self._threads:
            while thread.is_alive():
                try:
                    self._results.get_nowait()
                except queue.Empty:
                    pass
                thread.join(0.05)
        self._threads = []

    # -- observability ------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Coordination counters for ``status.json`` and tests:
        backpressure stalls, duplicate discards, expiries, lost leases,
        live sources."""
        with self._lock:
            return {
                "queue_stalls": self._queue_stalls,
                "queue_capacity": self.config.queue_capacity,
                "duplicates_discarded": self._table.duplicates,
                "leases_expired": self._expiries,
                "leases_lost": self._lost_leases,
                "live_sources": self._sources,
            }

    def status(self) -> Dict[str, Any]:
        """The fleet's ``status.json`` keys: ``distrib`` (:meth:`stats`)
        and ``shards``, the per-shard attribution (see
        :meth:`~repro.distrib.lease.LeaseTable.attribution`) that
        ``repro campaign status --shards`` renders."""
        with self._lock:
            attribution = self._table.attribution()
        return {"distrib": self.stats(), "shards": attribution}
