"""The asyncio JSON-lines TCP server fronting one live PD² system.

One :class:`AdmissionServer` owns one :class:`~repro.service.state.ServiceState`
and serves the protocol of :mod:`repro.service.protocol` through one
handler per verb, keyed by verb in a table whose keys are exactly
:data:`~repro.service.protocol.VERBS`.  Concurrency model: all request
handling runs on the event loop; the handlers of the verbs that mutate
the live system (``admit``, ``leave``, ``reweight``, ``advance``)
additionally take one state lock, so Eq. (2) admission is race-free even
with many connections pipelining — exactly the invariant
:class:`~repro.core.dynamic.DynamicPfairSystem` requires.

Shutdown is graceful: the listener closes first, then every connection is
asked to *drain* — stop reading, answer what is already queued, flush, and
close — bounded by a timeout.  A client that asked for ``shutdown`` gets
its response before the listener goes down.

:class:`ServerThread` runs a server on a dedicated thread with its own
event loop, for synchronous callers (the CLI's ``repro serve``, tests,
benchmarks, and ``examples/admission_service_demo.py``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from .batching import ConnectionPipeline
from ..util.metrics import MetricsRegistry
from .protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError,
                       error_response, ok_response, parse_request,
                       parse_spec_sets, parse_specs)
from .state import ServiceError, ServiceState

__all__ = ["AdmissionServer", "ServerThread"]

#: A verb handler: the decoded request in, the success fields out.
_Handler = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


class AdmissionServer:
    """Serves admission-control requests for one live system."""

    def __init__(self, state: ServiceState, host: str = "127.0.0.1",
                 port: int = 0, *, max_batch: int = 64,
                 max_pending: int = 256,
                 drain_timeout: float = 5.0) -> None:
        self.state = state
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.drain_timeout = drain_timeout
        self.metrics = MetricsRegistry()
        #: Serialises the verbs that mutate the live system.  Re-created
        #: by :meth:`start`: a lock binds to the loop that first waits
        #: on it.
        self._lock = asyncio.Lock()
        #: One handler per :data:`~repro.service.protocol.VERBS` entry.
        self._handlers: Dict[str, _Handler] = {
            "admit": self._admit,
            "leave": self._leave,
            "reweight": self._reweight,
            "query": self._query,
            "batch-analyze": self._batch_analyze,
            "advance": self._advance,
            "stats": self._stats,
            "ping": self._ping,
            "shutdown": self._shutdown,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._pipelines: Set[ConnectionPipeline] = set()
        self._stop: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and begin accepting; returns the bound ``(host, port)``
        (the port is the ephemeral one when 0 was requested)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._lock = asyncio.Lock()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=MAX_LINE_BYTES)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Start (if needed), serve until ``shutdown`` is requested, then
        drain connections and close."""
        if self._server is None:
            await self.start()
        assert self._stop is not None
        await self._stop.wait()
        await self.close()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to wind the server down."""
        if self._stop is not None:
            self._stop.set()

    async def close(self) -> None:
        """Stop accepting, drain live connections, and release the port."""
        if self._server is None:
            return
        self._server.close()
        for pipeline in list(self._pipelines):
            pipeline.begin_drain()
        if self._pipelines:
            waiters = [p.done.wait() for p in list(self._pipelines)]
            try:
                await asyncio.wait_for(asyncio.gather(*waiters),
                                       timeout=self.drain_timeout)
            except asyncio.TimeoutError:
                pass  # stragglers are dropped; their sockets close below
        await self._server.wait_closed()
        self._server = None

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self.metrics.counter("connections").inc("opened")
        pipeline = ConnectionPipeline(
            reader, writer, self.handle,
            max_batch=self.max_batch, max_pending=self.max_pending,
            metrics=self.metrics)
        self._pipelines.add(pipeline)
        try:
            await pipeline.run()
        finally:
            self._pipelines.discard(pipeline)
            self.metrics.counter("connections").inc("closed")

    # -- request handling ----------------------------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request; never raises.

        Metrics are recorded *after* the response is built, so a ``stats``
        snapshot covers exactly the requests completed before it.
        """
        started = time.perf_counter()
        rid = request.get("id")
        verb = "?"
        error_code = None
        try:
            rid, verb = parse_request(request)
            response = ok_response(rid, **await self._handlers[verb](request))
        except (ProtocolError, ServiceError) as exc:
            error_code = exc.code
            response = error_response(rid, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — the server must not die
            error_code = "internal"
            response = error_response(rid, "internal",
                                      f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        self.metrics.counter("requests").inc(verb)
        self.metrics.histogram(f"latency.{verb}").observe(elapsed)
        if error_code is not None:
            self.metrics.counter("errors").inc(error_code)
        return response

    # -- verb handlers -------------------------------------------------------

    async def _ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "version": PROTOCOL_VERSION}

    async def _stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"metrics": self.metrics.snapshot(),
                "cache": self.state.cache.info(),
                "system": self.state.describe()}

    async def _query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if "tasks" in request:
            specs = parse_specs(request)
            return {"analysis": self.state.analyze(specs),
                    "system": self.state.describe()}
        return {"system": self.state.describe()}

    async def _batch_analyze(self, request: Dict[str, Any]
                             ) -> Dict[str, Any]:
        # Read-only but heavy: the campaign engine dispatches the sets
        # over its process pool, and *waiting* on that pool would park
        # the event loop — so the wait itself moves to a worker thread.
        # ``analyze_batch`` touches only the internally-locked LRU and
        # the immutable model, never the live system, so no state lock
        # is needed.
        sets = parse_spec_sets(request)
        workers = request.get("workers", 1)
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or not 1 <= workers <= 64:
            raise ProtocolError(
                "bad-request", "'workers' must be an integer in [1, 64]")
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            None, self.state.analyze_batch, sets, workers)
        return {"results": results, "count": len(results)}

    async def _shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.request_shutdown()
        return {"closing": True}

    async def _admit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        async with self._lock:
            specs = parse_specs(request)
            dry = bool(request.get("dry_run", False))
            return self.state.admit(specs, dry_run=dry)

    async def _leave(self, request: Dict[str, Any]) -> Dict[str, Any]:
        async with self._lock:
            names = request.get("names")
            if not isinstance(names, list):
                raise ProtocolError("bad-request", "'names' must be a list")
            return self.state.leave(names)

    async def _reweight(self, request: Dict[str, Any]) -> Dict[str, Any]:
        async with self._lock:
            for field in ("name", "execution", "period"):
                if field not in request:
                    raise ProtocolError("bad-request", f"missing '{field}'")
            if not (isinstance(request["execution"], int)
                    and isinstance(request["period"], int)):
                raise ProtocolError(
                    "bad-request",
                    "'execution' and 'period' must be integers (ticks)")
            return self.state.reweight(
                request["name"], request["execution"], request["period"],
                new_name=request.get("new_name"))

    async def _advance(self, request: Dict[str, Any]) -> Dict[str, Any]:
        async with self._lock:
            return self.state.advance(request.get("slots", 1))


class ServerThread:
    """An :class:`AdmissionServer` on a background thread, for sync code.

    ::

        srv = ServerThread(ServiceState(processors=4))
        host, port = srv.start()
        ...  # drive it with AdmissionClient
        srv.stop()
    """

    def __init__(self, state: ServiceState, host: str = "127.0.0.1",
                 port: int = 0, **server_kwargs: Any) -> None:
        self.server = AdmissionServer(state, host, port, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def _main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                raise
            finally:
                self._started.set()
            await self.server.serve_forever()

        try:
            asyncio.run(body())
        except BaseException:
            if not self._started.is_set():  # pragma: no cover — bind races
                self._started.set()

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Launch the thread; returns the bound address once listening.

        A failed start (port in use, timeout) unwinds completely — the
        thread is asked to shut down and joined, and the ``ServerThread``
        is left exactly as before the call, so a retry (e.g. with a
        different port) is possible and no half-started daemon leaks.
        """
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._started.clear()
        self._startup_error = None
        thread = threading.Thread(target=self._main,
                                  name="repro-admission-server",
                                  daemon=True)
        self._thread = thread
        thread.start()
        try:
            if not self._started.wait(timeout):
                raise RuntimeError("server did not start in time")
            if self._startup_error is not None:
                raise RuntimeError(
                    f"server failed to start: {self._startup_error}")
        except Exception:
            loop = self._loop
            if loop is not None and loop.is_running():
                loop.call_soon_threadsafe(self.server.request_shutdown)
            thread.join(timeout)
            self._thread = None
            self._loop = None
            raise
        assert self.server.address is not None
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown and join the thread (idempotent: safe to call
        twice, or after a failed :meth:`start`)."""
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> Tuple[str, int]:
        """Start the server; the context value is the bound address."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
