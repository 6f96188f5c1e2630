"""Clients for the admission service: synchronous and asyncio, batched.

:class:`AdmissionClient` is the blocking-socket client used by the CLI,
the examples, and anything that is not already inside an event loop.
:class:`AsyncAdmissionClient` is its asyncio twin for concurrent drivers
(the end-to-end tests run several of them against one server).

Both support **pipelining** through ``send_batch``: all request lines go
out in one write, then the matching response lines are read back in
order.  Against a local server this is the difference between being
bound by round trips and being bound by the admission analysis itself —
``benchmarks/bench_service_throughput.py`` quantifies it.

Convenience verb methods (``admit``, ``query``, ``batch_analyze``,
``leave``, ``reweight``, ``advance``, ``stats``, ``ping``, ``shutdown``)
return the decoded
response dict and raise :class:`ServiceResponseError` when the server
answered ``ok: false`` — callers that want the raw envelope use
:meth:`request`.
"""

from __future__ import annotations

import socket
import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..workload.spec import TaskSpec
from .protocol import decode_line, encode, specs_to_wire

__all__ = ["ServiceResponseError", "AdmissionClient", "AsyncAdmissionClient"]

#: Tasks may be passed as ready specs or as wire dicts.
TaskArg = Union[TaskSpec, Dict[str, Any]]


class ServiceResponseError(Exception):
    """The server answered with ``ok: false``."""

    def __init__(self, response: Dict[str, Any]) -> None:
        self.response = response
        err = response.get("error") or {}
        self.code = err.get("code", "unknown")
        super().__init__(f"{self.code}: {err.get('message', '')}")


def _wire_tasks(tasks: Sequence[TaskArg]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for t in tasks:
        if isinstance(t, TaskSpec):
            out.extend(specs_to_wire([t]))
        else:
            out.append(t)
    return out


def _check(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise ServiceResponseError(response)
    return response


class _VerbMixin:
    """Shared verb->payload plumbing; subclasses provide ``request``."""

    def _payload(self, verb: str, **fields: Any) -> Dict[str, Any]:
        payload = {k: v for k, v in fields.items() if v is not None}
        payload["verb"] = verb
        return payload


class AdmissionClient(_VerbMixin):
    """Blocking JSON-lines client over one TCP connection."""

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- transport ----------------------------------------------------------

    def request(self, verb: str, **fields: Any) -> Dict[str, Any]:
        """One request/response round trip; returns the raw envelope."""
        return self.send_batch([self._payload(verb, **fields)])[0]

    def send_batch(self,
                   payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline ``payloads`` in one write; read all responses in order.

        Each payload is a dict with at least ``verb``; ids are assigned
        here and verified against the responses.
        """
        ids = []
        chunks = []
        for payload in payloads:
            self._next_id += 1
            ids.append(self._next_id)
            chunks.append(encode({**payload, "id": self._next_id}))
        self._file.write(b"".join(chunks))
        self._file.flush()
        responses = []
        for expect in ids:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode_line(line)
            got = response.get("id")
            if got is not None and got != expect:
                raise ConnectionError(
                    f"response out of order: expected id {expect}, "
                    f"got {got}")
            responses.append(response)
        return responses

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "AdmissionClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- verbs --------------------------------------------------------------

    def admit(self, tasks: Sequence[TaskArg], *,
              dry_run: bool = False) -> Dict[str, Any]:
        """Request admission of ``tasks`` (ticks); see docs/SERVICE.md."""
        return _check(self.request("admit", tasks=_wire_tasks(tasks),
                                   dry_run=dry_run or None))

    def query(self, tasks: Optional[Sequence[TaskArg]] = None
              ) -> Dict[str, Any]:
        """Schedulability analysis of ``tasks`` (no state change), or the
        live-system description when ``tasks`` is omitted."""
        wire = _wire_tasks(tasks) if tasks else None
        return _check(self.request("query", tasks=wire))

    def batch_analyze(self, task_sets: Sequence[Sequence[TaskArg]], *,
                      workers: Optional[int] = None) -> Dict[str, Any]:
        """Analyse many independent task sets in one request.

        ``response["results"]`` aligns with ``task_sets``; each entry is
        an ``analyze`` payload or ``{"error": ...}`` for an invalid set.
        ``workers`` asks the server to fan the misses out over that
        many worker processes.
        """
        wire = [_wire_tasks(ts) for ts in task_sets]
        return _check(self.request("batch-analyze", task_sets=wire,
                                   workers=workers))

    def leave(self, *names: str) -> Dict[str, Any]:
        """Begin the departure of the named tasks."""
        return _check(self.request("leave", names=list(names)))

    def reweight(self, name: str, execution: int, period: int, *,
                 new_name: Optional[str] = None) -> Dict[str, Any]:
        """Change ``name``'s weight to ``execution/period`` (ticks)."""
        return _check(self.request("reweight", name=name,
                                   execution=execution, period=period,
                                   new_name=new_name))

    def advance(self, slots: int = 1) -> Dict[str, Any]:
        """Advance the live schedule by ``slots`` quanta."""
        return _check(self.request("advance", slots=slots))

    def stats(self) -> Dict[str, Any]:
        """Metrics, cache, and system snapshot."""
        return _check(self.request("stats"))

    def ping(self) -> Dict[str, Any]:
        """Liveness check; reports the protocol version."""
        return _check(self.request("ping"))

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and stop."""
        return _check(self.request("shutdown"))


class AsyncAdmissionClient(_VerbMixin):
    """Asyncio JSON-lines client; one instance per connection."""

    def __init__(self, reader: "asyncio.StreamReader",
                 writer: "asyncio.StreamWriter") -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncAdmissionClient":
        """Open a connection and wrap it in a client."""
        import asyncio

        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, verb: str, **fields: Any) -> Dict[str, Any]:
        """One request/response round trip; returns the raw envelope."""
        return (await self.send_batch([self._payload(verb, **fields)]))[0]

    async def send_batch(self, payloads: Sequence[Dict[str, Any]]
                         ) -> List[Dict[str, Any]]:
        """Pipeline ``payloads`` in one write; await all responses."""
        ids = []
        chunks = []
        for payload in payloads:
            self._next_id += 1
            ids.append(self._next_id)
            chunks.append(encode({**payload, "id": self._next_id}))
        self._writer.write(b"".join(chunks))
        await self._writer.drain()
        responses = []
        for expect in ids:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode_line(line)
            got = response.get("id")
            if got is not None and got != expect:
                raise ConnectionError(
                    f"response out of order: expected id {expect}, "
                    f"got {got}")
            responses.append(response)
        return responses

    async def close(self) -> None:
        """Close the connection."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- verbs --------------------------------------------------------------

    async def admit(self, tasks: Sequence[TaskArg], *,
                    dry_run: bool = False) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.admit`."""
        return _check(await self.request("admit", tasks=_wire_tasks(tasks),
                                         dry_run=dry_run or None))

    async def query(self, tasks: Optional[Sequence[TaskArg]] = None
                    ) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.query`."""
        wire = _wire_tasks(tasks) if tasks else None
        return _check(await self.request("query", tasks=wire))

    async def batch_analyze(self, task_sets: Sequence[Sequence[TaskArg]], *,
                            workers: Optional[int] = None) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.batch_analyze`."""
        wire = [_wire_tasks(ts) for ts in task_sets]
        return _check(await self.request("batch-analyze", task_sets=wire,
                                         workers=workers))

    async def leave(self, *names: str) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.leave`."""
        return _check(await self.request("leave", names=list(names)))

    async def reweight(self, name: str, execution: int, period: int, *,
                       new_name: Optional[str] = None) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.reweight`."""
        return _check(await self.request("reweight", name=name,
                                         execution=execution, period=period,
                                         new_name=new_name))

    async def advance(self, slots: int = 1) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.advance`."""
        return _check(await self.request("advance", slots=slots))

    async def stats(self) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.stats`."""
        return _check(await self.request("stats"))

    async def ping(self) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.ping`."""
        return _check(await self.request("ping"))

    async def shutdown(self) -> Dict[str, Any]:
        """Async twin of :meth:`AdmissionClient.shutdown`."""
        return _check(await self.request("shutdown"))
