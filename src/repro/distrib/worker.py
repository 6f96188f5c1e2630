"""The worker node: ``repro worker --serve`` — shards in, points out.

A worker is a thin, threaded JSON-lines TCP service around a process
pool the server owns (built for the first shard, shut down in
``stop``): one accept thread, one thread per connection, evaluation in
pool *processes* so a crashing shard kills a disposable child and not
the node.  Verbs are defined in
:mod:`repro.distrib.wire` and answered through one handler per verb,
keyed by verb in a table whose keys are exactly
:data:`~repro.distrib.wire.WORKER_VERBS`; the framing is byte-compatible
with the admission service's (``nc`` works for debugging).

While a ``shard-run`` computes, the connection thread emits a heartbeat
frame every ``heartbeat_interval`` seconds.  That one detail carries the
whole failure model: the coordinator's per-shard lease deadlines can be
tight (a couple of heartbeat periods) because *liveness* — not
completion — resets them, so a dead or partitioned node is detected in
seconds while an honest long shard runs undisturbed.

Worker deaths inside the node are recovered exactly like the local
runner recovers them: the poisoned pool is replaced and the shard
resubmitted, bounded by :data:`MAX_POOL_REBUILDS`; past the budget the
coordinator gets an error response and charges the shard's retry
budget, never the node's liveness.

This file reads clocks (heartbeat pacing, stats uptime) and is exempted
from the R002 clock rule exactly like ``campaign/runner.py``; shard
*results* never depend on them.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

from ..campaign.runner import new_process_pool
from ..campaign.sched import evaluate_shard
from ..service.protocol import (MAX_LINE_BYTES, ProtocolError, decode_line,
                                encode, error_response, ok_response,
                                parse_request)
from ..traces.replay import TraceWindowPayload, evaluate_trace_shard
from ..util.metrics import Counter, LatencyHistogram
from .wire import (WORKER_PROTOCOL_VERSION, WORKER_VERBS, heartbeat_frame,
                   parse_shard_run, points_to_wire)

__all__ = ["WorkerServer", "serve_worker"]

#: Pool replacements one ``shard-run`` may trigger before the shard is
#: answered with a ``worker-death`` error (charged to its retry budget
#: by the coordinator).
MAX_POOL_REBUILDS = 1

#: A verb handler: ``(id, request, stream)`` in, the response out — or
#: ``None`` when the handler already wrote its own response.
_Handler = Callable[[Any, Dict[str, Any], BinaryIO],
                    Optional[Dict[str, Any]]]


class _WorkerMetrics:
    """Lifetime counters for one worker node, shared by every connection
    thread — all access goes through ``self._lock`` (the internally
    locked pattern staticcheck R007 recognises)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards = Counter()
        self._points = Counter()
        self._heartbeats = Counter()
        self._latency = LatencyHistogram()

    def record_shard(self, outcome: str, points: int,
                     elapsed: float) -> None:
        with self._lock:
            self._shards.inc(outcome)
            self._points.inc(n=points)
            self._latency.observe(elapsed)

    def record_heartbeat(self) -> None:
        with self._lock:
            self._heartbeats.inc()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "shards": self._shards.as_dict(),
                "points_produced": self._points.total(),
                "heartbeats_sent": self._heartbeats.total(),
                "shard_latency": self._latency.summary(),
            }


class WorkerServer:
    """A shard-evaluation node serving :data:`~repro.distrib.wire.
    WORKER_VERBS` over blocking sockets and threads.

    All mutable server state (listener, process pool, connection
    registry, stop flag) is guarded by ``self._lock``; the metrics
    object locks itself.  Evaluation runs in the server's own pool of
    ``jobs`` processes, shared by its connection threads, so ``jobs``
    concurrent connections genuinely use ``jobs`` cores and two servers
    in one process never share workers.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 jobs: int = 1, heartbeat_interval: float = 1.0,
                 evaluator: Optional[Callable[..., Any]] = None,
                 trace_evaluator: Optional[Callable[..., Any]] = None
                 ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.jobs = jobs
        self.heartbeat_interval = heartbeat_interval
        #: Module-level shard evaluators (pool-picklable); tests inject
        #: the fault-raising stand-ins from tests/campaign_fault_workers.
        #: ``evaluator`` answers synthetic ``shard-run`` frames,
        #: ``trace_evaluator`` the ones carrying a ``trace`` payload.
        self.evaluator = evaluator if evaluator is not None \
            else evaluate_shard
        self.trace_evaluator = trace_evaluator \
            if trace_evaluator is not None else evaluate_trace_shard
        self.metrics = _WorkerMetrics()
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Shards submitted to ``_pool`` (finished ones pruned on submit).
        self._inflight: List[Future[Any]] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: Dict[int, socket.socket] = {}
        self._conn_seq = 0
        self._stopping = threading.Event()
        self._started_at = 0.0
        self.address: Optional[Tuple[str, int]] = None
        #: One handler per :data:`~repro.distrib.wire.WORKER_VERBS` entry.
        self._handlers: Dict[str, _Handler] = {
            "ping": self._ping,
            "shard-run": self._run_shard,
            "worker-stats": self._worker_stats,
            "shutdown": self._shutdown,
        }

    # -- lifecycle ----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and begin accepting; returns ``(host, port)``
        (the ephemeral port when 0 was requested)."""
        with self._lock:
            if self._listener is not None:
                raise RuntimeError("worker server already started")
            listener = socket.create_server((self._host, self._port))
            listener.settimeout(0.2)
            self._listener = listener
            self.address = listener.getsockname()[:2]
            self._started_at = time.monotonic()
            self._stopping.clear()
            thread = threading.Thread(target=self._accept_loop,
                                      name="repro-worker-accept",
                                      daemon=True)
            self._accept_thread = thread
        thread.start()
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 5.0) -> None:
        """Close the listener and every connection, shut the pool down —
        waiting for it when no shard is running, cancelling without a
        wait otherwise; join the accept thread (idempotent)."""
        self._stopping.set()
        with self._lock:
            listener, self._listener = self._listener, None
            pool, self._pool = self._pool, None
            busy = not all(f.done() for f in self._inflight)
            self._inflight = []
            thread, self._accept_thread = self._accept_thread, None
            conns = list(self._conns.values())
            self._conns.clear()
        if listener is not None:
            listener.close()
        if pool is not None:
            # See dispatch_jobs: an idle pool is waited for, so its
            # manager thread never outlives the server into interpreter
            # exit.
            pool.shutdown(wait=not busy, cancel_futures=busy)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if thread is not None:
            thread.join(timeout)

    def wait(self) -> None:
        """Block until ``shutdown`` is requested (the CLI serve loop)."""
        self._stopping.wait()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- connection handling ------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                listener = self._listener
            if listener is None:
                return
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    continue
                self._conn_seq += 1
                key = self._conn_seq
                self._conns[key] = conn
            threading.Thread(target=self._serve_connection,
                             args=(key, conn),
                             name=f"repro-worker-conn-{key}",
                             daemon=True).start()

    def _serve_connection(self, key: int, conn: socket.socket) -> None:
        try:
            with conn.makefile("rwb") as stream:
                while not self._stopping.is_set():
                    line = stream.readline(MAX_LINE_BYTES + 1)
                    if not line:
                        return
                    if not self._answer(stream, line):
                        return
        except (OSError, ValueError):
            pass  # peer vanished mid-line: nothing to answer
        finally:
            with self._lock:
                self._conns.pop(key, None)
            conn.close()

    def _answer(self, stream: BinaryIO, line: bytes) -> bool:
        """Handle one request line; False ends the connection."""
        rid: Any = None
        try:
            obj = decode_line(line)
            rid = obj.get("id")
            rid, verb = parse_request(obj, verbs=WORKER_VERBS)
            response = self._handlers[verb](rid, obj, stream)
        except (ProtocolError,) as exc:
            response = error_response(rid, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — the node must not die
            response = error_response(rid, "internal",
                                      f"{type(exc).__name__}: {exc}")
        if response is not None:
            stream.write(encode(response))
            stream.flush()
        return not self._stopping.is_set()

    # -- process pool -------------------------------------------------

    def _submit(self, runner: Callable[[Any], Any], args: Any
                ) -> Tuple[ProcessPoolExecutor, Future[Any]]:
        """Submit one shard to the server's pool, built on first use
        (again after a worker death) until the server stops; returns
        the pool and the shard's future.  Submitting under the lock
        means :meth:`stop` sees every shard its pool was given."""
        with self._lock:
            if self._stopping.is_set():
                raise RuntimeError("worker server is stopping")
            pool = self._pool
            if pool is None:
                pool = self._pool = new_process_pool(self.jobs)
            try:
                fut = pool.submit(runner, args)
            except BrokenProcessPool:
                self._pool = None  # the next submit builds a fresh pool
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            self._inflight = [f for f in self._inflight if not f.done()]
            self._inflight.append(fut)
            return pool, fut

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop ``broken`` so the next shard builds a fresh pool.
        Connection threads share the pool and all see the same death, so
        only the executor that broke is dropped — never a sibling's
        fresh replacement."""
        with self._lock:
            if self._pool is broken:
                self._pool = None
                broken.shutdown(wait=False, cancel_futures=True)

    # -- verb handlers ------------------------------------------------

    def _ping(self, rid: Any, obj: Dict[str, Any],
              stream: BinaryIO) -> Dict[str, Any]:
        return ok_response(rid, pong=True, role="worker",
                           version=WORKER_PROTOCOL_VERSION)

    def _worker_stats(self, rid: Any, obj: Dict[str, Any],
                      stream: BinaryIO) -> Dict[str, Any]:
        return ok_response(
            rid, jobs=self.jobs,
            uptime_seconds=round(time.monotonic() - self._started_at, 3),
            **self.metrics.snapshot())

    def _shutdown(self, rid: Any, obj: Dict[str, Any],
                  stream: BinaryIO) -> None:
        # Answer before tripping the stop event — the serve loop's
        # stop() races this thread for the socket.
        stream.write(encode(ok_response(rid, closing=True)))
        stream.flush()
        self._stopping.set()

    def _run_shard(self, rid: Any, obj: Dict[str, Any],
                   stream: BinaryIO) -> Dict[str, Any]:
        """Evaluate one shard in the pool, heartbeating while it runs."""
        spec, model, trace = parse_shard_run(obj)
        if trace is None:
            runner, args = self.evaluator, (spec, model)
        else:
            try:
                payload = TraceWindowPayload.from_wire(trace)
            except ValueError as exc:
                raise ProtocolError("bad-request", str(exc)) from exc
            runner, args = self.trace_evaluator, (spec, model, payload)
        started = time.monotonic()
        rebuilds = 0
        pool: Optional[ProcessPoolExecutor] = None
        fut: Optional[Future[Any]] = None
        while True:
            try:
                if fut is None:
                    pool, fut = self._submit(runner, args)
                points = fut.result(timeout=self.heartbeat_interval)
                break
            except FutureTimeout:
                stream.write(encode(heartbeat_frame(rid)))
                stream.flush()
                self.metrics.record_heartbeat()
            except BrokenProcessPool:
                # Same recovery the local runner performs: the poisoned
                # pool is replaced and the shard resubmitted, bounded by
                # the rebuild budget.
                if pool is not None:
                    self._discard_pool(pool)
                rebuilds += 1
                if rebuilds > MAX_POOL_REBUILDS:
                    self.metrics.record_shard(
                        "error", 0, time.monotonic() - started)
                    return error_response(
                        rid, "worker-death",
                        f"shard {spec.shard_id} killed its pool worker "
                        f"{rebuilds} time(s); rebuild budget exhausted")
                fut = None
            except Exception as exc:  # the shard itself raised
                self.metrics.record_shard(
                    "error", 0, time.monotonic() - started)
                return error_response(rid, "shard-error",
                                      f"{type(exc).__name__}: {exc}")
        elapsed = time.monotonic() - started
        self.metrics.record_shard("ok", len(points), elapsed)
        return ok_response(rid, shard_id=spec.shard_id,
                           points=points_to_wire(points),
                           elapsed_seconds=round(elapsed, 6))


def serve_worker(host: str, port: int, *, jobs: int = 1,
                 heartbeat_interval: float = 1.0) -> Tuple[str, int]:
    """Run a worker node until ``shutdown`` (the ``repro worker --serve``
    body); returns the address it served on."""
    server = WorkerServer(host, port, jobs=jobs,
                          heartbeat_interval=heartbeat_interval)
    address = server.start()
    try:
        server.wait()
    finally:
        server.stop()
    return address
