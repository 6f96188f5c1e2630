"""Per-connection request pipeline: batching and backpressure.

Each TCP connection gets one :class:`ConnectionPipeline` coupling two
coroutines through a bounded queue:

* a **reader** that frames request lines off the socket and enqueues
  them.  The queue's size is the connection's in-flight budget: when a
  client pipelines faster than the server processes, the reader blocks on
  ``put`` — it stops draining the socket, the kernel receive buffer
  fills, and TCP flow control pushes back on the sender.  Backpressure
  without a single explicit drop.
* a **worker** that takes whatever is queued — one request after an idle
  wait, up to ``max_batch`` when the client pipelined — handles each in
  arrival order, and writes all the responses in a single syscall
  followed by one ``drain``.  Batching amortises the write/drain cost
  that dominates small-request throughput (see
  ``benchmarks/bench_service_throughput.py``).

Response order always matches request order within a connection, which is
what lets clients pipeline without request ids (ids are still echoed for
belt-and-braces matching).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..util.metrics import MetricsRegistry
from .protocol import ProtocolError, decode_line, encode, error_response

__all__ = ["ConnectionPipeline"]

_EOF = object()  # queue sentinel: connection closed or drain requested

#: A coroutine mapping one decoded request to one response dict.
Handler = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


class ConnectionPipeline:
    """Reads, batches, handles, and answers one connection's requests."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, handler: Handler, *,
                 max_batch: int = 64, max_pending: int = 256,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch < 1 or max_pending < 1:
            raise ValueError("max_batch and max_pending must be positive")
        self.reader = reader
        self.writer = writer
        self.handler = handler
        self.max_batch = max_batch
        self.metrics = metrics
        self._queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=max_pending)
        self._reader_task: Optional[asyncio.Task] = None
        self.done = asyncio.Event()
        self._draining = False

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    line = await self.reader.readline()
                except (asyncio.IncompleteReadError, ConnectionError,
                        ValueError):
                    # ValueError: line exceeded the stream limit — the
                    # framing is lost, so the connection must die.
                    break
                if not line:
                    break  # EOF
                if line.strip():
                    await self._queue.put(line)
        except asyncio.CancelledError:
            pass
        finally:
            # Tell the worker no more requests are coming.  This must not
            # be lost, so wait for space if the queue is full — the worker
            # is still draining it and will make room.
            await self._queue.put(_EOF)

    async def run(self) -> None:
        """Serve the connection until EOF or :meth:`begin_drain`."""
        self._reader_task = asyncio.create_task(self._read_loop())
        try:
            eof = False
            while not eof:
                item = await self._queue.get()
                if item is _EOF:
                    break
                batch = [item]
                while len(batch) < self.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is _EOF:
                        eof = True
                        break
                    batch.append(nxt)
                await self._serve_batch(batch)
        finally:
            self._reader_task.cancel()
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.done.set()

    async def _serve_batch(self, batch: "List[bytes]") -> None:
        responses = []
        for raw in batch:
            try:
                request = decode_line(raw)
            except ProtocolError as exc:
                responses.append(error_response(None, exc.code, exc.message))
                continue
            responses.append(await self.handler(request))
        if self.metrics is not None:
            self.metrics.counter("batches").inc(
                "pipelined" if len(batch) > 1 else "single")
            self.metrics.counter("batched_requests").inc("total", len(batch))
        try:
            self.writer.write(b"".join(encode(r) for r in responses))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass  # peer went away mid-reply; run() tears down

    def begin_drain(self) -> None:
        """Stop reading new requests; answer what is queued, then close.

        Part of graceful shutdown: the server calls this on every live
        connection and then awaits :attr:`done`.
        """
        if self._draining:
            return
        self._draining = True
        if self._reader_task is not None:
            self._reader_task.cancel()
