"""Admission control as a service: PD²/EDF-FF schedulability online.

The paper's strongest qualitative case for Pfair scheduling (Sec. 5) is
*dynamic* operation — tasks joining, leaving, and reweighting a live
system under the Srinivasan–Anderson rules implemented in
:mod:`repro.core.dynamic`.  This package turns those offline primitives
into a long-running **admission-control service**: an asyncio JSON-lines
TCP server that maintains one live PD²-scheduled system and answers
``admit`` / ``leave`` / ``reweight`` / ``query`` / ``advance`` / ``stats``
requests.

Every admission decision runs both sides of the paper's comparison: the
exact Eq. (2) feasibility test against the live system (via
:meth:`~repro.core.dynamic.DynamicPfairSystem.try_join`) and the
overhead-aware analyses of :mod:`repro.analysis.schedulability`, reporting
the minimum processor count under PD² and under EDF-FF.  Around that core
sit the production trimmings: a canonical task-set hash with an LRU result
cache (:class:`~repro.util.lru.LRUCache`), pipelined request batching with per-connection
backpressure (:mod:`.batching`), a metrics registry with counters and
latency histograms (:mod:`repro.util.metrics`), and graceful shutdown with
connection draining (:mod:`.server`).

See ``docs/SERVICE.md`` for the wire protocol and
``examples/admission_service_demo.py`` for an end-to-end drive.
"""

from ..util.lru import LRUCache
from .client import (AdmissionClient, AsyncAdmissionClient,
                     ServiceResponseError)
from ..util.metrics import LatencyHistogram, MetricsRegistry
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import AdmissionServer, ServerThread
from .state import ServiceError, ServiceState

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "LRUCache",
    "MetricsRegistry",
    "LatencyHistogram",
    "ServiceError",
    "ServiceState",
    "AdmissionServer",
    "ServerThread",
    "AdmissionClient",
    "AsyncAdmissionClient",
    "ServiceResponseError",
]
