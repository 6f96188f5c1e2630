"""Wire protocol: newline-delimited JSON requests and responses.

One request or response per line, UTF-8 JSON, ``\\n`` terminated — the
same framing as every JSON-lines service, chosen so the server can be
driven with ``nc`` for debugging and so clients can *pipeline*: write many
request lines in one chunk, then read the matching response lines (the
server preserves per-connection order).

A request is an object with a ``verb``, an optional client-chosen ``id``
(echoed verbatim in the response), and verb-specific fields::

    {"id": 1, "verb": "admit", "tasks": [{"execution": 250, "period": 10000,
                                          "name": "audio"}]}

A response always carries ``ok``; failures add an ``error`` object::

    {"id": 1, "ok": false, "error": {"code": "bad-request",
                                     "message": "..."}}

Task times are integer *ticks* (µs), matching :mod:`repro.workload.io` —
periods must be multiples of the server's quantum (1000 µs by default).
See ``docs/SERVICE.md`` for the full verb reference.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..workload.io import task_set_from_dict
from ..workload.spec import TaskSpec

__all__ = [
    "PROTOCOL_VERSION",
    "VERBS",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode",
    "decode_line",
    "parse_request",
    "parse_specs",
    "parse_spec_sets",
    "MAX_BATCH_SETS",
    "MAX_ADVANCE_SLOTS",
    "specs_to_wire",
    "ok_response",
    "error_response",
]

#: Bumped on incompatible wire changes; reported by ``ping``.
PROTOCOL_VERSION = 1

#: Every verb the server understands.
VERBS = ("admit", "leave", "reweight", "query", "batch-analyze", "advance",
         "stats", "ping", "shutdown")

#: Upper bound on task sets per ``batch-analyze`` request — keeps one
#: request from monopolising the shared worker pool.
MAX_BATCH_SETS = 1024

#: Upper bound on ``advance``'s ``slots``.  The slots run synchronously
#: on the event loop under the state lock, so an unbounded request would
#: stall every connection (``ping`` and ``shutdown`` included) for as
#: long as it runs.
MAX_ADVANCE_SLOTS = 10_000

#: Upper bound on one request line (also the asyncio stream limit).  A
#: 1000-task admit is ~100 KB; 4 MB leaves two orders of magnitude slack.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed request; ``code`` becomes the wire error code."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


def encode(obj: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form (JSON + newline).

    Canonical on purpose (sorted keys, pinned separators): the distrib
    layer byte-compares and checkpoints what crosses this wire, so two
    encoders building the same message from different insertion orders
    must frame identical bytes.
    """
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`ProtocolError` on junk."""
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", f"undecodable request line: {exc}") \
            from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    return obj


def parse_request(obj: Dict[str, Any],
                  verbs: Sequence[str] = VERBS) -> Tuple[Any, str]:
    """Validate the envelope; returns ``(id, verb)``.

    The ``id`` is optional and opaque (any JSON value); the verb must be
    one of ``verbs`` — the admission vocabulary :data:`VERBS` by default,
    or another service's (the distributed worker nodes reuse this framing
    with their own verb set).
    """
    verb = obj.get("verb")
    rid = obj.get("id")
    if not isinstance(verb, str):
        raise ProtocolError("bad-request", "missing string 'verb'")
    if verb not in verbs:
        raise ProtocolError(
            "unknown-verb", f"unknown verb {verb!r}; expected one of "
            f"{', '.join(verbs)}")
    return rid, verb


def parse_specs(obj: Dict[str, Any], field: str = "tasks") -> List[TaskSpec]:
    """Extract a task list (ticks) from a request, reusing the documented
    task-set JSON schema of :mod:`repro.workload.io`."""
    tasks = obj.get(field)
    if not isinstance(tasks, list) or not tasks:
        raise ProtocolError("bad-request",
                            f"'{field}' must be a non-empty list of tasks")
    try:
        return task_set_from_dict({"tasks": tasks})
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc)) from exc


def parse_spec_sets(obj: Dict[str, Any], field: str = "task_sets"
                    ) -> List[List[TaskSpec]]:
    """Extract a list of task *sets* (``batch-analyze``): each element is
    one task list in the same schema :func:`parse_specs` accepts."""
    sets = obj.get(field)
    if not isinstance(sets, list) or not sets:
        raise ProtocolError(
            "bad-request",
            f"'{field}' must be a non-empty list of task lists")
    if len(sets) > MAX_BATCH_SETS:
        raise ProtocolError(
            "bad-request",
            f"'{field}' holds {len(sets)} sets, above the per-request "
            f"limit of {MAX_BATCH_SETS}")
    out: List[List[TaskSpec]] = []
    for i, tasks in enumerate(sets):
        if not isinstance(tasks, list) or not tasks:
            raise ProtocolError(
                "bad-request",
                f"'{field}[{i}]' must be a non-empty list of tasks")
        try:
            out.append(task_set_from_dict({"tasks": tasks}))
        except ValueError as exc:
            raise ProtocolError("bad-request",
                                f"'{field}[{i}]': {exc}") from exc
    return out


def specs_to_wire(specs: Sequence[TaskSpec]) -> List[Dict[str, Any]]:
    """Serialise specs into the request-side task list."""
    return [
        {"name": s.name, "execution": s.execution, "period": s.period,
         "cache_delay": s.cache_delay, "deadline": s.deadline}
        for s in specs
    ]


def ok_response(rid: Any, **fields: Any) -> Dict[str, Any]:
    """A success response echoing the request ``id``."""
    resp: Dict[str, Any] = {"id": rid, "ok": True}
    resp.update(fields)
    return resp


def error_response(rid: Any, code: str,
                   message: Optional[str] = None) -> Dict[str, Any]:
    """A failure response with a machine-readable ``code``."""
    return {"id": rid, "ok": False,
            "error": {"code": code, "message": message or code}}
