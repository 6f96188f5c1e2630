"""Distributed campaign execution: deterministic shards over the wire.

The campaign engine (:mod:`repro.campaign`) shards deterministically,
checkpoints atomically, and survives local worker death — this package
takes the same shards off the machine.  A **worker node** (``repro
worker --serve``, :mod:`.worker`) is a thin threaded JSON-lines service
that evaluates serialized :class:`~repro.campaign.spec.ShardSpec`\\ s in
its own process pool, heartbeating while they run.  A **coordinator**
(:mod:`.coordinator`) leases unfinished shards to every connected node
with per-shard deadlines, re-leases from dead or silent nodes, and
discards late duplicate results soundly — shards are deterministic, so
any attempt's result is the right one (:mod:`.lease` states the
argument).  The coordinator is only a dispatcher: a fleet run passes it
to :func:`~repro.campaign.sched.run_schedulability_campaign` or
:func:`~repro.traces.replay.run_trace_campaign`, whose
:class:`~repro.campaign.runner.CampaignRunner` checkpoints into the run
directory exactly as a local run does, so a crashed fleet resumes
byte-identically via ``repro campaign resume --workers ...``.  Local
pool slots join a fleet as an in-process worker node on a loopback
port.  :mod:`.wire` is the pure serialization layer over the
:mod:`repro.service.protocol` framing.

Layering (staticcheck R003): distrib is the topmost layer — it imports
campaign and the service *protocol* module, and nothing imports it but
the CLI.  Determinism (R002) holds package-wide except the two
clock-exempt process-facing files (worker and coordinator).  Protocol,
lease semantics, and the failure model are documented in
``docs/DISTRIBUTED.md``.
"""

from .coordinator import (Coordinator, DistribConfig, DistribError,
                          NodeSpec, parse_worker_nodes)
from .lease import Lease, LeaseTable
from .wire import WORKER_PROTOCOL_VERSION, WORKER_VERBS
from .worker import WorkerServer, serve_worker

__all__ = [
    "WORKER_PROTOCOL_VERSION",
    "WORKER_VERBS",
    "Lease",
    "LeaseTable",
    "NodeSpec",
    "parse_worker_nodes",
    "DistribConfig",
    "DistribError",
    "Coordinator",
    "WorkerServer",
    "serve_worker",
]
