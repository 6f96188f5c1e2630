"""Tests for distributed campaign execution: wire, leases, fleet faults.

The load-bearing claims, each pinned here:

* the wire codecs round-trip shard specs, overhead-model signatures, and
  evaluated points exactly, so a point that crossed the wire checkpoints
  byte-identically to a local one;
* the lease table's accept-first/discard-duplicate policy, budgeted
  error retries, and unbudgeted expiry/worker-loss re-leases transition
  exactly as ``docs/DISTRIBUTED.md`` documents;
* a worker node speaks the JSON-lines protocol (ping, worker-stats,
  shard-run with heartbeat frames, shutdown) and evaluates shards
  identically to the local pool;
* a distributed run over ≥2 workers produces ``result.json``
  **byte-identical** to a pure-local run — including after killing a
  worker mid-campaign, partitioning its sockets, or delivering late
  duplicate results — and a killed fleet leaves a run directory that
  ``resume`` finishes byte-identically;
* a fleet run goes through the same :class:`~repro.campaign.runner.
  CampaignRunner` as a local one (the coordinator is only its
  dispatcher), and the CLI's ``-j`` slice is a loopback worker node
  that recovers a pool-worker death without charging the retry budget;
* the coordinator's bounded result queue applies backpressure (counted,
  never dropped) and surfaces its counters in ``status.json``.

Fault injection reuses the module-level evaluators in
``campaign_fault_workers`` (the pool can only pickle module-level
callables); the worker server takes them via its ``evaluator`` hook.
"""

import json
import socket
import threading

import pytest

import campaign_fault_workers as fw
from repro.campaign.pool import discard_worker_pool
from repro.campaign.runner import CampaignIncomplete
from repro.campaign.sched import evaluate_shard, run_schedulability_campaign
from repro.campaign.spec import CampaignGrid, plan_shards
from repro.distrib import (Coordinator, DistribConfig, DistribError,
                           LeaseTable, NodeSpec, WorkerServer,
                           parse_worker_nodes)
from repro.distrib.wire import (WORKER_PROTOCOL_VERSION, heartbeat_frame,
                                is_heartbeat, model_from_wire, model_to_wire,
                                parse_shard_run, points_from_wire,
                                points_to_wire, shard_run_request)
from repro.overheads.model import OverheadModel
from repro.service.protocol import ProtocolError, decode_line, encode

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Small but non-trivial grid shared by the end-to-end tests.
GRID = CampaignGrid(n_tasks=8, utilizations=(1.0, 2.0, 3.0),
                    sets_per_point=3, seed=11)

#: Fast coordination knobs for tests (no long lease or status waits).
FAST = dict(poll_interval_seconds=0.01, status_interval_seconds=0.05)


@pytest.fixture
def slow_delay(monkeypatch):
    """Dial in :func:`campaign_fault_workers.slow_shard`'s per-shard
    stall.  Pool workers inherit the environment at fork, so the warm
    pool is rebuilt after setting it — and again at teardown so later
    tests get a clean pool."""
    def set_delay(seconds):
        monkeypatch.setenv(fw.SLOW_SECONDS_ENV, str(seconds))
        discard_worker_pool()

    yield set_delay
    discard_worker_pool()


def local_result_bytes(tmp_path, grid=GRID):
    """``result.json`` of an uninterrupted pure-local run — the byte
    reference every distributed scenario must match."""
    run_dir = tmp_path / "local-ref"
    run_schedulability_campaign(
        grid.n_tasks, grid.utilizations, sets_per_point=grid.sets_per_point,
        seed=grid.seed, run_dir=str(run_dir))
    return (run_dir / "result.json").read_bytes()


def distributed_result_bytes(run_dir):
    return (run_dir / "result.json").read_bytes()


def dead_port():
    """A loopback port nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def request(sock_file, payload):
    """One raw request/response round trip over a worker connection,
    skipping heartbeat frames."""
    sock_file.write(encode(payload))
    sock_file.flush()
    while True:
        obj = decode_line(sock_file.readline())
        if not is_heartbeat(obj):
            return obj


# ---------------------------------------------------------------------------
# Wire codecs


class TestWire:
    def test_model_signature_round_trip(self):
        for model in (None, OverheadModel(),
                      OverheadModel(context_switch=5),
                      OverheadModel.zero(2000)):
            wire = model_to_wire(model)
            back = model_from_wire(wire)
            if model is None:
                assert back is None
            else:
                assert back is not None
                assert back.signature() == model.signature()

    def test_custom_callable_model_cannot_cross_the_wire(self):
        custom = OverheadModel(sched_pd2=lambda n: 0)
        with pytest.raises(ValueError, match="run locally"):
            model_to_wire(custom)

    def test_model_from_wire_rejects_junk(self):
        for junk in (["martian", 1, 1000], [1, 2], "paper-fig2", [None]):
            with pytest.raises(ProtocolError):
                model_from_wire(junk)

    def test_shard_run_round_trip(self):
        spec = plan_shards(GRID)[0]
        req = shard_run_request(spec, OverheadModel())
        assert "trace" not in req  # synthetic frames stay protocol-v1
        back_spec, back_model, back_trace = parse_shard_run(
            json.loads(encode(req).decode()))
        assert back_spec == spec
        assert back_model is not None
        assert back_trace is None

    def test_shard_run_round_trip_with_trace(self):
        spec = plan_shards(GRID)[0]
        trace = {"window_offset": 0, "tasks": [["J1", 100, 1000, 1]]}
        req = shard_run_request(spec, None, trace)
        _spec, _model, back_trace = parse_shard_run(
            json.loads(encode(req).decode()))
        assert back_trace == trace
        with pytest.raises(ProtocolError):
            parse_shard_run({"verb": "shard-run", "shard": spec.to_dict(),
                             "trace": "nope"})

    def test_parse_shard_run_rejects_junk(self):
        with pytest.raises(ProtocolError):
            parse_shard_run({"verb": "shard-run", "shard": "nope"})
        with pytest.raises(ProtocolError):
            parse_shard_run({"verb": "shard-run",
                             "shard": {"shard_id": "only"}})

    def test_points_round_trip_exactly(self):
        spec = plan_shards(GRID)[0]
        points = evaluate_shard((spec, None))
        wire = json.loads(encode({"points": points_to_wire(points)}))
        assert points_from_wire(wire["points"]) == points

    def test_heartbeat_frames(self):
        frame = heartbeat_frame(7)
        assert is_heartbeat(frame) and frame["id"] == 7
        assert not is_heartbeat({"id": 7, "ok": True})

    def test_node_spec_parsing(self):
        nodes = parse_worker_nodes("127.0.0.1:7012, 10.0.0.2:7013")
        assert [n.label for n in nodes] == ["127.0.0.1:7012",
                                            "10.0.0.2:7013"]
        for bad in ("", "hostonly", "host:port", "a:1,a:1"):
            with pytest.raises(ValueError):
                parse_worker_nodes(bad)


# ---------------------------------------------------------------------------
# Lease table (clock-free: synthetic timestamps)


class TestLeaseTable:
    def test_lease_complete_and_finish(self):
        table = LeaseTable(["b", "a"])
        lease = table.lease("w1", now=0.0, timeout=10.0)
        assert lease is not None and lease.shard_id == "a"  # sorted order
        assert table.complete("a", "w1", lease.epoch)
        second = table.lease("w1", now=1.0, timeout=10.0)
        assert second is not None and second.shard_id == "b"
        table.complete("b", "w1", second.epoch)
        assert table.finished and table.done == {"a", "b"}
        assert table.lease("w1", now=2.0, timeout=10.0) is None

    def test_duplicate_results_are_discarded(self):
        table = LeaseTable(["a"])
        lease = table.lease("w1", now=0.0, timeout=1.0)
        # Lease expires; the shard is re-leased elsewhere.
        assert table.expire(now=2.0) == [("a", "w1")]
        release = table.lease("w2", now=2.0, timeout=1.0)
        # The slow original attempt still arrives first: accepted.
        assert table.complete("a", "w1", lease.epoch)
        # The re-leased attempt's result is a duplicate: discarded.
        assert not table.complete("a", "w2", release.epoch)
        assert table.duplicates == 1 and table.finished
        att = table.attribution()["a"]
        assert att["worker"] == "w1"
        assert [r["outcome"] for r in att["leases"]] == ["done", "duplicate"]

    def test_accepted_late_result_drains_the_stale_pending_entry(self):
        # The lease expired and the shard went back to pending; then the
        # original attempt's result arrived and was accepted.  The stale
        # queue entry must vanish with it — the run is over.
        table = LeaseTable(["a"])
        lease = table.lease("w1", now=0.0, timeout=1.0)
        table.expire(now=2.0)
        assert table.complete("a", "w1", lease.epoch)
        assert table.finished
        assert table.lease("w2", now=3.0, timeout=1.0) is None

    def test_settled_shards_are_never_re_granted_from_the_queue(self):
        table = LeaseTable(["a", "b"])
        first = table.lease("w1", now=0.0, timeout=1.0)
        table.expire(now=2.0)           # "a" re-pended behind "b"
        second = table.lease("w2", now=2.0, timeout=9.0)  # grants "b"
        assert second.shard_id == "b"
        table.complete("a", "w1", first.epoch)  # settles queued "a"
        table.complete("b", "w2", second.epoch)
        assert table.lease("w3", now=3.0, timeout=1.0) is None
        assert table.finished

    def test_stale_error_never_double_queues_a_shard(self):
        table = LeaseTable(["a"])
        lease = table.lease("w1", now=0.0, timeout=1.0)
        table.expire(now=2.0)  # re-pended by the expiry scan
        # The expired attempt's error report lands afterwards.
        assert table.fail("a", lease.epoch, max_retries=5)
        assert table.lease("w2", now=3.0, timeout=1.0) is not None
        assert table.lease("w3", now=3.0, timeout=1.0) is None  # only once

    def test_errors_are_budgeted(self):
        table = LeaseTable(["a"])
        # max_retries=2 → errors 1 and 2 requeue, error 3 fails.
        for _ in range(2):
            lease = table.lease("w1", now=0.0, timeout=5.0)
            assert table.fail("a", lease.epoch, max_retries=2)
        lease = table.lease("w1", now=0.0, timeout=5.0)
        assert not table.fail("a", lease.epoch, max_retries=2)
        assert table.failed == {"a"} and table.finished
        assert table.lease("w1", now=0.0, timeout=5.0) is None

    def test_expiry_and_worker_loss_are_unbudgeted(self):
        table = LeaseTable(["a"])
        for round_ in range(25):  # far beyond any retry budget
            lease = table.lease("w1", now=float(round_), timeout=0.5)
            assert lease.epoch == round_
            assert table.expire(now=round_ + 1.0) == [("a", "w1")]
        lease = table.lease("w2", now=100.0, timeout=5.0)
        assert table.drop_worker("w2") == ["a"]
        final = table.lease("w3", now=101.0, timeout=5.0)
        assert table.complete("a", "w3", final.epoch)
        assert table.finished and not table.failed

    def test_heartbeat_extends_soft_deadline_only(self):
        table = LeaseTable(["a", "b"])
        table.lease("w1", now=0.0, timeout=1.0, hard_timeout=3.0)
        table.lease("w2", now=0.0, timeout=1.0)
        assert table.heartbeat("w1", now=0.9, timeout=1.0) == 1
        # w1's lease now runs to 1.9; w2's expires at 1.0.
        assert table.expire(now=1.5) == [("b", "w2")]
        # Heartbeats cannot push past the hard deadline.
        table.heartbeat("w1", now=2.9, timeout=1.0)
        assert table.expire(now=3.5) == [("a", "w1")]

    def test_abandon_outstanding(self):
        table = LeaseTable(["a", "b", "c"])
        lease = table.lease("w1", now=0.0, timeout=5.0)
        table.complete("a", "w1", lease.epoch)
        table.lease("w1", now=0.0, timeout=5.0)
        assert table.abandon_outstanding() == {"b", "c"}
        assert table.finished and table.failed == {"b", "c"}

    def test_unique_shard_ids_required(self):
        with pytest.raises(ValueError):
            LeaseTable(["a", "a"])


# ---------------------------------------------------------------------------
# Worker node protocol


class TestWorkerServer:
    def test_ping_stats_shard_run_and_errors(self):
        with WorkerServer(jobs=1, heartbeat_interval=5.0) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                f = sock.makefile("rwb")
                pong = request(f, {"id": 1, "verb": "ping"})
                assert pong["ok"] and pong["role"] == "worker"
                assert pong["version"] == WORKER_PROTOCOL_VERSION

                stats = request(f, {"id": 2, "verb": "worker-stats"})
                assert stats["ok"] and stats["jobs"] == 1

                spec = plan_shards(GRID)[0]
                resp = request(f, {"id": 3,
                                   **shard_run_request(spec, None)})
                assert resp["ok"] and resp["shard_id"] == spec.shard_id
                # Wire points match a local evaluation of the same spec
                # exactly — the byte-identity contract's first half.
                assert points_from_wire(resp["points"]) == \
                    evaluate_shard((spec, None))

                bad = request(f, {"id": 4, "verb": "advance"})
                assert not bad["ok"]
                assert bad["error"]["code"] == "unknown-verb"

                bad = request(f, {"id": 5, "verb": "shard-run",
                                  "shard": {"broken": True}})
                assert not bad["ok"]
                assert bad["error"]["code"] == "bad-request"

    def test_heartbeats_flow_while_a_shard_computes(self, slow_delay):
        slow_delay(0.6)
        server = WorkerServer(jobs=1, heartbeat_interval=0.1,
                              evaluator=fw.slow_shard)
        with server as (host, port):
            with socket.create_connection((host, port),
                                          timeout=10) as sock:
                f = sock.makefile("rwb")
                spec = plan_shards(GRID)[0]
                f.write(encode({"id": 9, **shard_run_request(spec, None)}))
                f.flush()
                beats = 0
                while True:
                    obj = decode_line(f.readline())
                    if is_heartbeat(obj):
                        assert obj["id"] == 9
                        beats += 1
                        continue
                    break
                assert obj["ok"] and beats >= 2
        assert server.metrics.snapshot()["heartbeats_sent"] >= 2

    def test_shutdown_verb_stops_the_server(self):
        server = WorkerServer(jobs=1)
        host, port = server.start()
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rwb")
            resp = request(f, {"id": 1, "verb": "shutdown"})
            assert resp["ok"] and resp["closing"]
        server.wait()  # returns because shutdown tripped the stop event
        server.stop()


# ---------------------------------------------------------------------------
# Distributed campaigns end to end


class TestDistributedRuns:
    def run_distributed(self, tmp_path, nodes, *, name="dist",
                        resume=False, config=None, grid=GRID):
        run_dir = tmp_path / name
        run_schedulability_campaign(
            grid.n_tasks, grid.utilizations,
            sets_per_point=grid.sets_per_point, seed=grid.seed,
            run_dir=str(run_dir), resume=resume,
            dispatcher=Coordinator(nodes, config or DistribConfig(**FAST)))
        return run_dir

    def test_two_workers_match_local_byte_for_byte(self, tmp_path):
        reference = local_result_bytes(tmp_path)
        with WorkerServer(jobs=1) as (h1, p1), \
                WorkerServer(jobs=1) as (h2, p2):
            run_dir = self.run_distributed(
                tmp_path, [NodeSpec(h1, p1), NodeSpec(h2, p2)])
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert status["state"] == "complete"
        # Per-worker attribution covers every shard exactly once.
        produced = sum(w["shards_done"]
                       for w in status["workers"].values())
        assert produced == status["shards_total"]
        # Every shard checkpoint records its producing node.
        workers = {s["worker"] for s in status["shards"].values()}
        assert workers <= {f"{h1}:{p1}", f"{h2}:{p2}"}

    def test_mixed_local_and_remote_slots(self, tmp_path):
        # Local slots are a loopback worker node beside the remote one.
        reference = local_result_bytes(tmp_path)
        with WorkerServer(jobs=1) as (host, port), \
                WorkerServer(jobs=1) as (lhost, lport):
            run_dir = self.run_distributed(
                tmp_path, [NodeSpec(host, port), NodeSpec(lhost, lport)])
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert set(status["workers"]) <= {f"{lhost}:{lport}",
                                          f"{host}:{port}"}

    def test_kill_worker_mid_campaign_completes_identically(self, tmp_path,
                                                            slow_delay):
        reference = local_result_bytes(tmp_path)
        slow_delay(0.15)  # every shard outlives the kill timer below
        survivor = WorkerServer(jobs=1, heartbeat_interval=0.05,
                                evaluator=fw.slow_shard)
        victim = WorkerServer(jobs=1, heartbeat_interval=0.05,
                              evaluator=fw.slow_shard)
        with survivor as (h1, p1), victim as (h2, p2):
            # Kill the victim mid-shard; the coordinator re-leases its
            # work to the survivor.
            killer = threading.Timer(0.1, victim.stop)
            killer.start()
            try:
                run_dir = self.run_distributed(
                    tmp_path, [NodeSpec(h1, p1), NodeSpec(h2, p2)],
                    config=DistribConfig(lease_timeout=2.0, **FAST))
            finally:
                killer.cancel()
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert status["state"] == "complete"

    def test_partitioned_sockets_complete_identically(self, tmp_path,
                                                      slow_delay):
        reference = local_result_bytes(tmp_path)
        slow_delay(0.15)
        partitioned = WorkerServer(jobs=1, heartbeat_interval=0.05,
                                   evaluator=fw.slow_shard)
        healthy = WorkerServer(jobs=1, heartbeat_interval=0.05,
                               evaluator=fw.slow_shard)
        with healthy as (h1, p1), partitioned as (h2, p2):
            def partition():
                # Sever every established connection without stopping
                # the server — the network failed, not the node.
                with partitioned._lock:
                    conns = list(partitioned._conns.values())
                for conn in conns:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

            cutter = threading.Timer(0.1, partition)
            cutter.start()
            try:
                run_dir = self.run_distributed(
                    tmp_path, [NodeSpec(h1, p1), NodeSpec(h2, p2)],
                    name="partitioned",
                    config=DistribConfig(lease_timeout=2.0, **FAST))
            finally:
                cutter.cancel()
        assert distributed_result_bytes(run_dir) == reference

    def test_expired_leases_and_late_duplicates_stay_identical(
            self, tmp_path, slow_delay):
        # Every shard outlives the *hard* deadline while heartbeats keep
        # the connection healthy, so every first lease expires and is
        # re-leased while its attempt still runs — late results arrive
        # for shards that were re-granted (and sometimes already
        # finished) elsewhere.  Accept-first + determinism must keep the
        # output byte-identical through all of it.
        reference = local_result_bytes(tmp_path)
        slow_delay(0.5)
        slow = dict(heartbeat_interval=0.05, evaluator=fw.slow_shard)
        with WorkerServer(jobs=1, **slow) as (h1, p1), \
                WorkerServer(jobs=1, **slow) as (h2, p2):
            run_dir = self.run_distributed(
                tmp_path, [NodeSpec(h1, p1), NodeSpec(h2, p2)],
                name="slow",
                config=DistribConfig(lease_timeout=0.3,
                                     shard_deadline=0.35, **FAST))
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert status["distrib"]["leases_expired"] >= 1
        assert status["retries"].get("expired", 0) >= 1

    def test_killed_fleet_fails_resumably_then_resumes_identically(
            self, tmp_path, slow_delay):
        reference = local_result_bytes(tmp_path)
        slow_delay(0.3)  # no shard can finish before the kill at 0.15 s
        victim = WorkerServer(jobs=1, heartbeat_interval=0.05,
                              evaluator=fw.slow_shard)
        with victim as (host, port):
            killer = threading.Timer(0.15, victim.stop)
            killer.start()
            try:
                with pytest.raises(CampaignIncomplete):
                    self.run_distributed(
                        tmp_path, [NodeSpec(host, port)], name="crashed",
                        config=DistribConfig(lease_timeout=1.0, **FAST))
            finally:
                killer.cancel()
        run_dir = tmp_path / "crashed"
        status = json.loads((run_dir / "status.json").read_text())
        assert status["state"] == "failed"
        done_before = status["shards_done"]
        assert done_before < status["shards_total"]
        # A fresh worker finishes the same directory byte-identically.
        with WorkerServer(jobs=1) as (host, port):
            self.run_distributed(tmp_path, [NodeSpec(host, port)],
                                 name="crashed", resume=True)
        assert distributed_result_bytes(run_dir) == reference
        final = json.loads((run_dir / "status.json").read_text())
        assert final["state"] == "complete"
        assert final["shards_resumed"] == done_before

    def test_no_sources_is_rejected_up_front(self):
        with pytest.raises(DistribError, match="no shard sources"):
            Coordinator((), DistribConfig())

    def test_dead_node_at_startup_is_a_loud_error(self, tmp_path):
        with pytest.raises(OSError):
            self.run_distributed(tmp_path,
                                 [NodeSpec("127.0.0.1", dead_port())],
                                 name="nonode")

    def test_custom_model_rejected_before_touching_the_fleet(self):
        # Nothing listens on the node's port: reaching it would raise
        # OSError, so the ValueError proves the check came first.
        custom = OverheadModel(sched_pd2=lambda n: 0)
        coord = Coordinator([NodeSpec("127.0.0.1", dead_port())])
        with pytest.raises(ValueError, match="run locally"):
            coord.run({s.shard_id: (s, custom) for s in plan_shards(GRID)},
                      on_success=lambda *event: None)

    def test_resume_of_a_finished_run_never_touches_the_fleet(
            self, tmp_path):
        # Every shard is already checkpointed, so the fleet run has no
        # jobs: it must finish without connecting to its (dead) node.
        run_dir = tmp_path / "local-ref"
        reference = local_result_bytes(tmp_path)
        self.run_distributed(tmp_path, [NodeSpec("127.0.0.1", dead_port())],
                             name="local-ref", resume=True)
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert status["state"] == "complete"
        assert status["shards_resumed"] == status["shards_total"]

    def test_loopback_slice_recovers_worker_death_unbudgeted(
            self, tmp_path, monkeypatch, capsys):
        # `--workers NODE -j 1` adds a loopback worker node.  One shard
        # kills its pool worker once; with a zero retry budget the run
        # must still complete, because a worker death is recovered by
        # rebuilding the pool, never charged to the shard.
        from repro.cli import main
        from repro.distrib import worker as worker_module

        victim = plan_shards(GRID)[1].shard_id
        monkeypatch.setenv(fw.DIE_SHARD_ENV, victim)
        monkeypatch.setenv(fw.FUSE_DIR_ENV, str(tmp_path))
        discard_worker_pool()  # pool workers must inherit the env
        # The CLI's loopback node takes the module's default evaluator.
        monkeypatch.setattr(worker_module, "evaluate_shard",
                            fw.dying_once_shard)
        grid_args = ["--tasks", str(GRID.n_tasks), "--points",
                     str(len(GRID.utilizations)), "--sets",
                     str(GRID.sets_per_point), "--seed", str(GRID.seed)]
        try:
            with WorkerServer(jobs=1,
                              evaluator=fw.dying_once_shard) as (host, port):
                assert main(["campaign", "run", str(tmp_path / "fleet"),
                             *grid_args, "--workers", f"{host}:{port}",
                             "-j", "1", "--retries", "0"]) == 0
        finally:
            discard_worker_pool()
        assert (tmp_path / victim).exists(), "the victim never died"
        assert main(["campaign", "run", str(tmp_path / "local"),
                     *grid_args]) == 0
        capsys.readouterr()
        assert distributed_result_bytes(tmp_path / "fleet") == \
            distributed_result_bytes(tmp_path / "local")
        status = json.loads((tmp_path / "fleet" / "status.json").read_text())
        assert status["state"] == "complete"
        assert status["shards"][victim]["errors"] == 0


# ---------------------------------------------------------------------------
# Backpressure


class TestBackpressure:
    def test_emit_blocks_and_counts_when_queue_is_full(self):
        with WorkerServer(jobs=1) as (host, port):
            coord = Coordinator([NodeSpec(host, port)],
                                DistribConfig(queue_capacity=1))
        coord._results.put_nowait(("lost", "w0", "fill"))  # queue now full
        released = threading.Event()

        def producer():
            coord._emit(("lost", "w1", "blocked"))  # must block, not drop
            released.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not released.wait(0.2), "emit should block on a full queue"
        assert coord._results.get_nowait()[2] == "fill"
        assert released.wait(2.0), "emit should resume once drained"
        thread.join(2.0)
        assert coord.stats()["queue_stalls"] == 1
        assert coord._results.get_nowait()[2] == "blocked"

    def test_bounded_queue_still_completes_under_pressure(self, tmp_path):
        reference = local_result_bytes(tmp_path)
        run_dir = tmp_path / "pressure"
        with WorkerServer(jobs=2) as (host, port):
            run_schedulability_campaign(
                GRID.n_tasks, GRID.utilizations,
                sets_per_point=GRID.sets_per_point, seed=GRID.seed,
                run_dir=str(run_dir),
                dispatcher=Coordinator(
                    [NodeSpec(host, port)],
                    DistribConfig(queue_capacity=1, **FAST)))
        assert distributed_result_bytes(run_dir) == reference
        status = json.loads((run_dir / "status.json").read_text())
        assert status["distrib"]["queue_capacity"] == 1


# ---------------------------------------------------------------------------
# Progress attribution (pure)


class TestProgressAttribution:
    def test_snapshot_carries_per_worker_columns(self):
        from repro.campaign.progress import ProgressTracker

        t = ProgressTracker(4)
        t.start(now=100.0)
        t.record_success(0.5, "node-a")
        t.record_success(0.25, "node-a")
        t.record_success(1.0, "node-b")
        t.record_retry("expired", "node-b")
        t.record_retry("error")  # chargeable to nobody
        snap = t.snapshot(now=110.0, state="running")
        workers = snap["workers"]
        assert workers["node-a"]["shards_done"] == 2
        assert workers["node-b"]["retries"] == {"expired": 1}
        assert snap["retries"] == {"expired": 1, "error": 1}
        assert workers["node-a"]["throughput_shards_per_sec"] == \
            pytest.approx(0.2)

    def test_local_runs_attribute_to_local(self):
        from repro.campaign.progress import ProgressTracker

        t = ProgressTracker(1)
        t.start(now=0.0)
        t.record_success(0.5)
        snap = t.snapshot(now=1.0, state="complete")
        assert list(snap["workers"]) == ["local"]


class TestLeaseOrderDeterminism:
    """Grant order is thread-scheduling order (whichever slot thread
    asked first), so the re-lease scans must not leak it: expire() and
    drop_worker() return sorted ids whatever order grants happened in."""

    def _scrambled_table(self):
        table = LeaseTable(["s1", "s2", "s3", "s4"])
        first = table.lease("w1", now=0.0, timeout=10.0)   # grants s1
        table.lease("w1", now=0.0, timeout=10.0)           # grants s2
        assert table.fail("s1", first.epoch, max_retries=5)  # re-pends s1
        for _ in range(3):  # grants s3, s4, then s1 again
            assert table.lease("w1", now=0.0, timeout=10.0) is not None
        # Internal insertion order is now grant order — not sorted.
        assert list(table._leases) == ["s2", "s3", "s4", "s1"]
        return table

    def test_expire_returns_sorted_pairs(self):
        table = self._scrambled_table()
        assert table.expire(now=100.0) == [
            ("s1", "w1"), ("s2", "w1"), ("s3", "w1"), ("s4", "w1")]

    def test_drop_worker_returns_sorted_ids(self):
        table = self._scrambled_table()
        assert table.drop_worker("w1") == ["s1", "s2", "s3", "s4"]
