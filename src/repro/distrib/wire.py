"""Wire format for distributed shard dispatch: worker verbs and payloads.

The distributed layer speaks the exact JSON-lines framing of
:mod:`repro.service.protocol` (one UTF-8 JSON object per line, ``id``
echoed verbatim), but with its own verb set — a worker node is a *shard
evaluator*, not an admission server, and registering the verbs here
keeps the two vocabularies from drifting into one another:

* ``ping``         — liveness; reports the worker protocol version;
* ``shard-run``    — evaluate one serialized :class:`~repro.campaign.
  spec.ShardSpec` and answer with its raw ``SchedulabilityPoint`` rows;
  while the evaluation runs the worker emits *heartbeat frames*
  (``{"id": ..., "heartbeat": true}``) so the coordinator can tell a
  slow shard from a dead node;
* ``worker-stats`` — pool size and lifetime counters, used by the
  coordinator to size its per-node connection fan-out and by
  ``repro campaign status`` for attribution;
* ``shutdown``     — drain and stop (the CI smoke jobs use it).

Everything in this module is pure serialization — no sockets, no
clocks, no RNG (staticcheck R002 covers the ``distrib`` package).  The
point codec is shared with the checkpoint store on purpose: a point
that crossed the wire re-serialises into a shard checkpoint
byte-identically to one computed locally, which is what lets a
distributed run's ``result.json`` match a pure-local run bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.schedulability import SchedulabilityPoint
from ..campaign.checkpoint import point_from_dict, point_to_dict
from ..campaign.spec import ShardSpec
from ..overheads.model import OverheadModel
from ..service.protocol import ProtocolError

__all__ = [
    "WORKER_PROTOCOL_VERSION",
    "WORKER_VERBS",
    "model_to_wire",
    "model_from_wire",
    "shard_run_request",
    "parse_shard_run",
    "points_to_wire",
    "points_from_wire",
    "heartbeat_frame",
    "is_heartbeat",
]

#: Bumped on incompatible changes to the worker verbs; checked by the
#: coordinator against every node's ``ping`` before leasing it shards.
WORKER_PROTOCOL_VERSION = 1

#: Every verb a worker node understands.
WORKER_VERBS = ("ping", "shard-run", "worker-stats", "shutdown")


def model_to_wire(model: Optional[OverheadModel]) -> Optional[List[Any]]:
    """Serialise an overhead model as its :meth:`~repro.overheads.model.
    OverheadModel.signature` — ``None`` means "worker default".

    Models with custom scheduling-cost callables have no signature and
    cannot cross the wire (a worker could not reconstruct the curves);
    those campaigns must run locally.
    """
    if model is None:
        return None
    sig = model.signature()
    if sig is None:
        raise ValueError(
            "overhead models with custom sched_edf/sched_pd2 callables "
            "cannot be sent to remote workers — run locally instead")
    return list(sig)


def model_from_wire(data: Optional[Sequence[Any]]) -> Optional[OverheadModel]:
    """Rebuild a model from its wire signature (inverse of
    :func:`model_to_wire`); raises :class:`ProtocolError` on junk."""
    if data is None:
        return None
    try:
        curves, context_switch, quantum = data
        context_switch = int(context_switch)
        quantum = int(quantum)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad-request",
                            f"malformed model signature {data!r}") from exc
    if curves == "paper-fig2":
        model = OverheadModel(context_switch=context_switch, quantum=quantum)
    elif curves == "zero":
        model = replace(OverheadModel.zero(quantum),
                        context_switch=context_switch)
    else:
        raise ProtocolError("bad-request",
                            f"unknown model curve family {curves!r}")
    if list(model.signature() or ()) != [curves, context_switch, quantum]:
        raise ProtocolError("bad-request",
                            "model signature did not round-trip")
    return model


def shard_run_request(spec: ShardSpec, model: Optional[OverheadModel],
                      trace: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
    """The ``shard-run`` request body (the client layers the ``id`` on).

    ``trace`` is a trace-replay window payload in wire form
    (:meth:`repro.traces.replay.TraceWindowPayload.to_wire`); when
    present the worker evaluates the shard against the trace pool
    instead of the synthetic generator.  Absent for synthetic shards —
    the key is omitted entirely, so protocol-v1 synthetic frames are
    byte-identical to before.
    """
    body = {"verb": "shard-run", "shard": spec.to_dict(),
            "model": model_to_wire(model)}
    if trace is not None:
        body["trace"] = trace
    return body


def parse_shard_run(obj: Dict[str, Any]
                    ) -> tuple[ShardSpec, Optional[OverheadModel],
                               Optional[Dict[str, Any]]]:
    """Validate and decode a ``shard-run`` request.

    Returns ``(spec, model, trace)`` — ``trace`` is the raw wire
    payload dict (``None`` for synthetic shards); the worker decodes it
    with :meth:`repro.traces.replay.TraceWindowPayload.from_wire`,
    which checks every row, before the shard reaches its pool.
    """
    shard = obj.get("shard")
    if not isinstance(shard, dict):
        raise ProtocolError("bad-request",
                            "'shard' must be a ShardSpec object")
    try:
        spec = ShardSpec.from_dict(shard)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("bad-request",
                            f"malformed shard spec: {exc}") from exc
    trace = obj.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise ProtocolError("bad-request",
                            "'trace' must be a payload object when present")
    return spec, model_from_wire(obj.get("model")), trace


def points_to_wire(points: Sequence[SchedulabilityPoint]
                   ) -> List[Dict[str, Any]]:
    """Serialise evaluated points with the checkpoint codec — JSON
    round-trips ints and IEEE-754 doubles exactly, so a point that
    crossed the wire checkpoints byte-identically to a local one."""
    return [point_to_dict(p) for p in points]


def points_from_wire(data: Any) -> List[SchedulabilityPoint]:
    """Decode a ``shard-run`` response's point rows."""
    if not isinstance(data, list):
        raise ProtocolError("bad-response", "'points' must be a list")
    try:
        return [point_from_dict(pd) for pd in data]
    except (KeyError, TypeError) as exc:
        raise ProtocolError("bad-response",
                            f"malformed point row: {exc}") from exc


def heartbeat_frame(rid: Any) -> Dict[str, Any]:
    """An interim liveness frame emitted while a ``shard-run`` computes.

    Heartbeats share the request's ``id`` but are *not* its response —
    clients must keep reading until a frame without ``heartbeat``.
    """
    return {"id": rid, "heartbeat": True}


def is_heartbeat(obj: Dict[str, Any]) -> bool:
    """True for interim heartbeat frames (see :func:`heartbeat_frame`)."""
    return bool(obj.get("heartbeat"))
