"""The JSON-lines wire protocol and the persisted formats, checked by
running their real peers.

Two peers speak verbs: the admission service (:data:`repro.service.
protocol.VERBS`, answered by :class:`~repro.service.server.
AdmissionServer`) and the worker nodes (:data:`repro.distrib.wire.
WORKER_VERBS`, answered by :class:`~repro.distrib.worker.WorkerServer`).
Four properties keep the protocol closed under evolution:

* **dispatch tables** — each server's verb -> handler table has exactly
  its registry's keys, so every registered verb is answered and no
  handler waits for a verb that can never arrive;
* **emitted verbs** — every frame an in-tree peer sends (each client
  verb method, the coordinator's probes, ``shard-run`` with and without
  a trace payload) is answered without ``unknown-verb``;
* **emitted fields** — every non-envelope field of those frames is read
  by the receiver: the payload goes in as a dict that records the keys
  its reader looks up;
* **format tags** — every reader of a tagged file (run manifests, shard
  checkpoints, saved campaigns) rejects a missing or foreign
  ``"format"``.
"""

import asyncio
import io
import json
from pathlib import Path

import pytest

from repro.analysis.persistence import load_campaign, save_campaign
from repro.campaign.checkpoint import (MANIFEST_FORMAT, CheckpointStore,
                                       RunDirError)
from repro.campaign.sched import evaluate_shard
from repro.campaign.spec import CampaignGrid, plan_shards
from repro.distrib import Coordinator, DistribConfig, NodeSpec, WorkerServer
from repro.distrib import coordinator as coordinator_module
from repro.distrib.wire import (WORKER_VERBS, is_heartbeat, parse_shard_run,
                                shard_run_request)
from repro.overheads.model import OverheadModel
from repro.service.client import AdmissionClient, AsyncAdmissionClient
from repro.service.protocol import VERBS, decode_line, encode
from repro.service.server import AdmissionServer
from repro.service.state import ServiceState
from repro.traces.replay import TraceGrid, build_window_payloads
from repro.traces.swf import parse_swf
from repro.workload.spec import TaskSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Frame fields every message may carry; not part of any verb's payload.
ENVELOPE = {"id", "verb"}

#: A one-point grid: the cheapest real shard.
GRID = CampaignGrid(n_tasks=4, utilizations=(1.0,), sets_per_point=1,
                    seed=5)

MINI_SWF = Path(__file__).parent / "data" / "mini.swf"


class RecordingDict(dict):
    """A request payload that records every key its reader looks up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def unread_fields(payload, request):
    """The payload's non-envelope fields its receiver never looked up."""
    return set(payload) - ENVELOPE - request.read


# ---------------------------------------------------------------------------
# Dispatch tables


class TestDispatchTables:
    def test_admission_server_answers_exactly_its_verbs(self):
        table = AdmissionServer(ServiceState(1))._handlers
        assert sorted(table) == sorted(VERBS)
        assert len(VERBS) == len(set(VERBS))

    def test_worker_answers_exactly_its_verbs(self):
        table = WorkerServer()._handlers
        assert sorted(table) == sorted(WORKER_VERBS)
        assert len(WORKER_VERBS) == len(set(WORKER_VERBS))


# ---------------------------------------------------------------------------
# The admission service: every client verb method, replayed


#: Every client verb method with every optional field set, in an order
#: a live system accepts (``reweight`` needs an admitted task).
TASKS = [TaskSpec(2000, 10000, name="a")]
CLIENT_CALLS = (
    ("ping", (), {}),
    ("stats", (), {}),
    ("query", (), {}),
    ("query", (TASKS,), {}),
    ("batch_analyze", ([TASKS],), {"workers": 1}),
    ("admit", (TASKS,), {"dry_run": True}),
    ("admit", (TASKS + [TaskSpec(1000, 10000, name="c")],), {}),
    ("reweight", ("a", 3000, 10000), {"new_name": "b"}),
    ("leave", ("c",), {}),
    ("advance", (3,), {}),
    ("shutdown", (), {}),
)

#: Client methods that are transport, not verbs.
TRANSPORT = {"connect", "request", "send_batch", "close"}


class _CapturingClient(AdmissionClient):
    """The real client's verb methods over a transport that records the
    payloads instead of sending them."""

    def __init__(self):
        self.sent = []

    def send_batch(self, payloads):
        self.sent.extend(payloads)
        return [{"ok": True} for _ in payloads]


class _AsyncCapturingClient(AsyncAdmissionClient):
    def __init__(self):
        self.sent = []

    async def send_batch(self, payloads):
        self.sent.extend(payloads)
        return [{"ok": True} for _ in payloads]


def sync_payloads():
    client = _CapturingClient()
    for name, args, kwargs in CLIENT_CALLS:
        getattr(client, name)(*args, **kwargs)
    return client.sent


def async_payloads():
    client = _AsyncCapturingClient()

    async def drive():
        for name, args, kwargs in CLIENT_CALLS:
            await getattr(client, name)(*args, **kwargs)

    asyncio.run(drive())
    return client.sent


def replay(payloads):
    """Hand each payload to a fresh server's ``handle`` as a recording
    dict; returns ``(payload, request, response)`` triples."""
    server = AdmissionServer(ServiceState(2))

    async def run():
        out = []
        for rid, payload in enumerate(payloads):
            request = RecordingDict(payload, id=rid)
            out.append((payload, request, await server.handle(request)))
        return out

    return asyncio.run(run())


def verb_methods(cls):
    return {name for name in vars(cls)
            if not name.startswith("_")} - TRANSPORT


class TestAdmissionClientFrames:
    def test_the_script_calls_every_client_verb_method(self):
        called = {name for name, _, _ in CLIENT_CALLS}
        assert verb_methods(AdmissionClient) == called
        assert verb_methods(AsyncAdmissionClient) == called

    def test_the_client_speaks_every_registered_verb(self):
        assert {p["verb"] for p in sync_payloads()} == set(VERBS)

    def test_sync_and_async_clients_emit_the_same_frames(self):
        assert async_payloads() == sync_payloads()

    @pytest.mark.parametrize("payloads", [sync_payloads, async_payloads],
                             ids=["sync", "async"])
    def test_every_frame_is_answered_and_every_field_read(self, payloads):
        for payload, request, response in replay(payloads()):
            assert response["ok"], (payload["verb"], response)
            assert not unread_fields(payload, request), payload["verb"]


# ---------------------------------------------------------------------------
# The worker nodes: the coordinator's probes and shard-run frames


def worker_lines(server, payload):
    """One request line through a worker connection's handler; returns
    every line it wrote back, heartbeats included."""
    stream = io.BytesIO()
    server._answer(stream, encode({**payload, "id": 1}))
    return stream.getvalue().splitlines(keepends=True)


def worker_answer(server, payload):
    """The final (non-heartbeat) response frame to ``payload``."""
    frames = [decode_line(line) for line in worker_lines(server, payload)]
    return [f for f in frames if not is_heartbeat(f)][-1]


def trace_shard_frame():
    grid = TraceGrid(trace_name="mini.swf", trace_sha256="0" * 64,
                     window_seconds=3600, window_offsets=(0,),
                     utilizations=(1.0,), n_tasks=4, sets_per_point=1,
                     seed=5)
    payloads, _ = build_window_payloads(parse_swf(str(MINI_SWF)), grid)
    shard = grid.plan()[0]
    return shard, shard_run_request(shard, OverheadModel(),
                                    payloads[shard.shard_id].to_wire())


class TestWorkerFrames:
    def test_coordinator_probes_are_answered(self, monkeypatch):
        sent = []
        real_encode = coordinator_module.encode

        def recording_encode(obj):
            sent.append(obj)
            return real_encode(obj)

        monkeypatch.setattr(coordinator_module, "encode", recording_encode)
        with WorkerServer(jobs=1) as (host, port):
            node = NodeSpec(host, port)
            coordinator = Coordinator([node], DistribConfig())
            # _connect pings (and version-checks the answer); the probe
            # then asks worker-stats for the node's pool size.
            assert coordinator._probe_jobs(node) == 1
        assert [frame["verb"] for frame in sent] == ["ping", "worker-stats"]
        assert all(set(frame) <= ENVELOPE for frame in sent)

    def test_synthetic_shard_run_is_answered_and_read(self):
        spec = plan_shards(GRID)[0]
        frame = shard_run_request(spec, OverheadModel())
        request = RecordingDict(frame)
        assert parse_shard_run(request)[0] == spec
        assert not unread_fields(frame, request)
        response = worker_answer(WorkerServer(jobs=1), frame)
        assert response["ok"] and response["shard_id"] == spec.shard_id
        assert "trace" not in frame  # synthetic frames stay protocol-v1

    def test_trace_shard_run_is_answered_and_read(self):
        shard, frame = trace_shard_frame()
        request = RecordingDict(frame)
        _, _, trace = parse_shard_run(request)
        assert trace == frame["trace"]
        assert not unread_fields(frame, request)
        response = worker_answer(WorkerServer(jobs=1), frame)
        assert response["ok"] and response["shard_id"] == shard.shard_id

    def test_bare_verbs_are_answered_and_foreign_ones_refused(self):
        # ping / worker-stats: the coordinator; shard-run: the frames
        # above; shutdown: answered here, sent by operators and CI.
        server = WorkerServer(jobs=1)
        for verb in ("ping", "worker-stats", "shutdown"):
            response = worker_answer(server, {"verb": verb})
            assert response["ok"], (verb, response)
        response = worker_answer(WorkerServer(jobs=1), {"verb": "admit"})
        assert response["error"]["code"] == "unknown-verb"


# ---------------------------------------------------------------------------
# Canonical frames


def canonical_frame(line):
    """``line`` re-encoded with sorted keys and compact separators."""
    return json.dumps(json.loads(line), sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


class TestCanonicalFrames:
    def test_admission_frames_are_canonical(self):
        # Requests as the client frames them, and the server's answers.
        lines = [encode({**payload, "id": rid})
                 for rid, payload in enumerate(sync_payloads())]
        lines += [encode(response)
                  for _, _, response in replay(sync_payloads())]
        for line in lines:
            assert line == canonical_frame(line), line

    def test_worker_frames_are_canonical(self):
        # Requests as the coordinator frames them, and every line the
        # worker writes back (heartbeats, results, errors).
        spec = plan_shards(GRID)[0]
        _, trace_frame = trace_shard_frame()
        requests = [shard_run_request(spec, OverheadModel()), trace_frame,
                    {"verb": "ping"}, {"verb": "worker-stats"},
                    {"verb": "admit"}]
        lines = [encode({**frame, "id": 1}) for frame in requests]
        for frame in requests:
            lines += worker_lines(WorkerServer(jobs=1), frame)
        for line in lines:
            assert line == canonical_frame(line), line


# ---------------------------------------------------------------------------
# Format tags


def _retag(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


#: How a tagged file goes wrong: its ``"format"`` is missing or foreign.
TAG_DEFECTS = {
    "missing-tag": lambda data: data.pop("format"),
    "foreign-tag": lambda data: data.update(format="repro-other-v1"),
}

#: Shard checkpoints also fail when they record a different shard.
SHARD_DEFECTS = {
    **TAG_DEFECTS,
    "mismatched-shard-id": lambda data: data["shard"].update(
        shard_id="s-elsewhere"),
}

SHARD_READERS = ("read_shard", "read_shard_meta", "read_shard_spec")


@pytest.fixture
def store_with_shard(tmp_path):
    store = CheckpointStore(tmp_path / "run")
    store.initialize(GRID, model_fingerprint=None, created="t0")
    spec = plan_shards(GRID)[0]
    store.write_shard(spec, evaluate_shard((spec, None)), attempts=1,
                      elapsed_seconds=0.0)
    return store, spec


class TestFormatTags:
    @pytest.mark.parametrize("defect", sorted(SHARD_DEFECTS))
    @pytest.mark.parametrize("reader", SHARD_READERS)
    def test_shard_readers_reject_bad_checkpoints(self, store_with_shard,
                                                  defect, reader):
        store, spec = store_with_shard
        getattr(store, reader)(spec.shard_id)  # well-formed: reads fine
        assert store.completed_shards() == {spec.shard_id}
        _retag(store._shard_path(spec.shard_id), SHARD_DEFECTS[defect])
        with pytest.raises(RunDirError):
            getattr(store, reader)(spec.shard_id)
        assert store.completed_shards() == set()

    @pytest.mark.parametrize("defect", sorted(TAG_DEFECTS))
    def test_load_manifest_rejects_bad_tags(self, store_with_shard, defect):
        store, _ = store_with_shard
        assert store.load_manifest()["format"] == MANIFEST_FORMAT
        _retag(store.run_dir / store.MANIFEST, TAG_DEFECTS[defect])
        with pytest.raises(RunDirError):
            store.load_manifest()

    @pytest.mark.parametrize("defect", sorted(TAG_DEFECTS))
    def test_load_campaign_rejects_bad_tags(self, tmp_path, defect):
        path = tmp_path / "campaign.json"
        save_campaign(path, [], seed=1, sets_per_point=1)
        assert load_campaign(path) == []
        _retag(path, TAG_DEFECTS[defect])
        with pytest.raises(ValueError, match="not a repro campaign file"):
            load_campaign(path)
