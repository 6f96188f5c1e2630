"""End-to-end tests for the admission-control service over real sockets.

The acceptance scenario from the issue: start a server on an ephemeral
port, hammer it from several concurrent client connections with
``admit`` / ``leave`` / ``reweight`` traffic, and verify that

(a) every accepted set keeps Eq. (2) satisfied at every instant — each
    response carries the committed weight at the moment it was served,
    and none may exceed the processor count;
(b) a rejected join leaves the system state unchanged, including for
    multi-task requests where the first task alone would fit;
(c) *(throughput lives in ``benchmarks/bench_service_throughput.py``)*;
(d) ``stats`` reports request counts and latency histograms that agree
    with each other and with the requests actually sent.
"""

import asyncio
import json
import socket
import threading
from fractions import Fraction

import pytest

from repro.service import (AdmissionClient, AsyncAdmissionClient,
                           ServerThread, ServiceResponseError, ServiceState)
from repro.workload.spec import TaskSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

Q = 1000  # default quantum in ticks


def spec(e_quanta, p_quanta, name):
    return TaskSpec(e_quanta * Q, p_quanta * Q, name=name)


@pytest.fixture()
def server():
    state = ServiceState(2)
    with ServerThread(state) as (host, port):
        yield state, host, port


class TestSingleConnection:
    def test_ping_and_version(self, server):
        _, host, port = server
        with AdmissionClient(host, port) as c:
            r = c.ping()
            assert r["pong"] and r["version"] == 1

    def test_admit_query_leave_reweight_roundtrip(self, server):
        state, host, port = server
        with AdmissionClient(host, port) as c:
            r = c.admit([spec(1, 2, "video"), spec(2, 3, "audio")])
            assert r["admitted"]
            assert Fraction(r["committed_weight"]) == Fraction(7, 6)
            assert r["analysis"]["m_pd2"] >= 1
            assert r["analysis"]["m_edf_ff"] >= 1

            # Same set (renamed) through the cache.
            q = c.query([spec(1, 2, "v2"), spec(2, 3, "a2")])
            assert q["analysis"]["cached"] is True

            c.advance(4)
            rw = c.reweight("audio", 1 * Q, 3 * Q)
            assert rw["new"] == "audio'"
            lv = c.leave("video")
            assert lv["departures"]["video"] >= 4
            desc = c.query()
            assert desc["system"]["feasible"]
        assert state.system.now == 4

    def test_huge_period_query_answers_promptly(self, server):
        """The Eq. (3) analysis runs on the event loop; a 4e12-quantum
        period whose fixed point is ~2e12 one-quantum steps away must not
        stall it."""
        _, host, port = server
        with AdmissionClient(host, port, timeout=10.0) as c:
            q = c.query([TaskSpec(Q, 4 * 10**15, name="huge",
                                  cache_delay=994)])
            assert q["analysis"]["m_pd2"] == 1
            assert c.ping()["pong"]

    def test_rejected_join_leaves_state_unchanged(self, server):
        state, host, port = server
        with AdmissionClient(host, port) as c:
            # Fill 18/10 of the capacity of 2.
            c.admit([spec(9, 10, "big1"), spec(9, 10, "big2")])
            before = state.describe()
            # Multi-task set where the first task alone would fit: the
            # whole request must be rolled back.
            r = c.admit([spec(1, 10, "ok"), spec(9, 10, "overflow")])
            assert not r["admitted"]
            assert state.describe() == before
            # The names stay free for a later, feasible request.
            assert c.admit([spec(1, 10, "ok")])["admitted"]

    def test_dry_run_changes_nothing(self, server):
        state, host, port = server
        with AdmissionClient(host, port) as c:
            r = c.admit([spec(1, 2, "probe")], dry_run=True)
            assert r["admitted"] and r["dry_run"]
            assert state.describe()["tasks"] == []

    def test_service_errors_surface_with_codes(self, server):
        _, host, port = server
        with AdmissionClient(host, port) as c:
            with pytest.raises(ServiceResponseError) as exc:
                c.leave("ghost")
            assert exc.value.code == "unknown-task"
            for slots in (0, True, 10**9):
                with pytest.raises(ServiceResponseError) as exc:
                    c.advance(slots)
                assert exc.value.code == "bad-request"
            with pytest.raises(ServiceResponseError) as exc:
                c.admit([TaskSpec(100, 1500, name="odd")])
            assert exc.value.code == "bad-task"
            # The connection survives every error.
            assert c.ping()["pong"]

    def test_repeated_leave_and_failed_join_over_the_wire(self, server):
        """A second leave of a cancelled reweight join returns its first
        departure, and a leave or reweight of a reweight join that found
        no capacity answers ``unknown-task``."""
        _, host, port = server
        with AdmissionClient(host, port) as c:
            c.admit([spec(1, 2, "x")])
            c.reweight("x", 1 * Q, 2 * Q)
            first = c.leave("x'")["departures"]
            assert c.leave("x'")["departures"] == first == {"x'": 0}
            # M=2: f holds 1, a (1/2) is reweighted to 1/1, and b (1/2)
            # takes the freed half before a' joins.
            c.admit([spec(1, 1, "f"), spec(1, 2, "a")])
            assert c.advance(3)["now"] == 3
            joins_at = c.reweight("a", 1 * Q, 1 * Q)["joins_at"]
            assert c.admit([spec(1, 2, "b")])["admitted"]
            r = c.advance(joins_at - 3 + 2)
            assert len(r["failed_joins"]) == 1
            for request in (lambda: c.leave("a'"),
                            lambda: c.reweight("a'", 1 * Q, 2 * Q)):
                with pytest.raises(ServiceResponseError) as exc:
                    request()
                assert exc.value.code == "unknown-task"
            assert c.ping()["pong"]

    def test_reweight_of_a_departed_task_joins_now(self, server):
        """M=2: ``a`` (1/2) leaves at slot 4; a reweight at slot 10
        answers ``joins_at`` 10, and the next advance joins ``a'``."""
        state, host, port = server
        with AdmissionClient(host, port) as c:
            c.admit([spec(1, 2, "a")])
            c.advance(4)
            assert c.leave("a")["departures"] == {"a": 4}
            c.advance(6)
            rw = c.reweight("a", 1 * Q, 2 * Q)
            assert rw["joins_at"] == rw["now"] == 10
            r = c.advance(1)
            assert r["failed_joins"] == [] and r["misses"] == 0
            assert r["committed_weight"] == "1/2"
            assert "a'" in [t["name"] for t in state.describe()["tasks"]]

    def test_malformed_lines_get_error_responses(self, server):
        _, host, port = server
        with socket.create_connection((host, port), timeout=10) as raw:
            f = raw.makefile("rwb")
            f.write(b"this is not json\n")
            f.write(b'{"verb": "frobnicate", "id": 2}\n')
            f.write(b'{"verb": "ping", "id": 3}\n')
            f.flush()
            bad_json = json.loads(f.readline())
            bad_verb = json.loads(f.readline())
            fine = json.loads(f.readline())
        assert not bad_json["ok"] and bad_json["error"]["code"] == "bad-json"
        assert not bad_verb["ok"]
        assert bad_verb["error"]["code"] == "unknown-verb"
        assert fine["ok"] and fine["pong"]

    def test_batch_analyze_verb(self, server):
        state, host, port = server
        with AdmissionClient(host, port) as c:
            r = c.batch_analyze([
                [spec(1, 2, "a")],
                [spec(2, 3, "b"), spec(1, 3, "c")],
                [spec(1, 2, "a2")],  # same shape as the first set
            ])
            assert r["count"] == 3
            results = r["results"]
            assert all(row["m_pd2"] >= 1 for row in results)
            assert results[0]["m_pd2"] == results[2]["m_pd2"]
            # A repeat request is served from the analysis cache.
            again = c.batch_analyze([[spec(1, 2, "z")]])
            assert again["results"][0]["cached"] is True
            # Analysis is read-only: nothing joined the live system.
            assert state.describe()["tasks"] == []

    def test_batch_analyze_isolates_bad_sets_and_validates(self, server):
        _, host, port = server
        with AdmissionClient(host, port) as c:
            r = c.batch_analyze([
                [spec(1, 2, "good")],
                [TaskSpec(100, 1500, name="odd")],  # bad quantisation
            ])
            assert "error" not in r["results"][0]
            assert "error" in r["results"][1]
            # Malformed requests fail whole with a pinpointed message.
            raw = c.send_batch([{"verb": "batch-analyze",
                                 "task_sets": [[{"execution": "no"}]]}])[0]
            assert not raw["ok"]
            assert "'task_sets[0]'" in raw["error"]["message"]
            for workers in (0, 65, True, "2"):
                with pytest.raises(ServiceResponseError) as exc:
                    c.batch_analyze([[spec(1, 2, "w")]], workers=workers)
                assert exc.value.code == "bad-request"
            assert c.ping()["pong"]  # connection survives the errors

    def test_constrained_deadlines_are_bad_tasks(self, server):
        """The analysis refuses a deadline below the period (it would
        pack this set, whose demand is 9,900 µs by t = 4,000 µs, on one
        processor): ``admit`` and ``query`` answer ``bad-task`` and
        change nothing, ``batch-analyze`` reports the set alone."""
        state, host, port = server
        constrained = [TaskSpec(4000, 10 * Q, name="a", deadline=4000),
                       TaskSpec(4000, 10 * Q, name="b", deadline=4000),
                       TaskSpec(1900, 10 * Q, name="c", deadline=2000)]
        with AdmissionClient(host, port) as c:
            for call in (lambda: c.admit(constrained),
                         lambda: c.admit(constrained, dry_run=True),
                         lambda: c.query(constrained)):
                with pytest.raises(ServiceResponseError) as exc:
                    call()
                assert exc.value.code == "bad-task"
                assert "a: deadline 4000 is below its period" in str(exc.value)
            r = c.batch_analyze([[spec(1, 2, "fine")], constrained])
            assert "error" not in r["results"][0]
            assert r["results"][1] == {
                "error": "a: deadline 4000 is below its period 10000; the "
                         "analysis needs implicit deadlines",
                "cached": False}
            assert state.describe()["tasks"] == []
            assert state.cache.info()["size"] == 1  # only the good set
            # A deadline equal to the period is the implicit deadline.
            r = c.admit([TaskSpec(4000, 10 * Q, name="a", deadline=10 * Q)])
            assert r["admitted"] and r["analysis"]["m_edf_ff"] == 1

    def test_pipelined_batch_ordering(self, server):
        _, host, port = server
        with AdmissionClient(host, port) as c:
            payloads = [{"verb": "ping"} for _ in range(32)]
            responses = c.send_batch(payloads)
            assert len(responses) == 32
            assert all(r["ok"] and r["pong"] for r in responses)
            ids = [r["id"] for r in responses]
            assert ids == sorted(ids)


class TestConcurrentClients:
    """The acceptance storm: ≥ 4 connections mutating one live system."""

    CLIENTS = 5
    ROUNDS = 6

    def test_concurrent_admit_leave_reweight(self, server):
        state, host, port = server

        async def client_session(i):
            c = await AsyncAdmissionClient.connect(host, port)
            observed = []
            try:
                for r in range(self.ROUNDS):
                    name = f"c{i}r{r}"
                    resp = await c.request(
                        "admit",
                        tasks=[{"execution": 1 * Q, "period": 10 * Q,
                                "name": name}])
                    observed.append(resp)
                    if resp.get("admitted"):
                        rw = await c.reweight(name, 2 * Q, 10 * Q)
                        observed.append(rw)
                        lv = await c.leave(rw["new"])
                        observed.append(lv)
                    adv = await c.advance(1)
                    observed.append(adv)
                return observed
            finally:
                await c.close()

        async def storm():
            return await asyncio.gather(
                *(client_session(i) for i in range(self.CLIENTS)))

        all_responses = [r for session in asyncio.run(storm())
                         for r in session]
        # (a) Eq. (2) at every instant: every response snapshots the
        # committed weight at the moment it was served.
        assert all_responses
        for resp in all_responses:
            assert resp["ok"], resp
            committed = Fraction(resp["committed_weight"])
            assert committed <= state.processors, resp
            assert resp["feasible"]
        # The storm must not have produced a single deadline miss.
        final = state.describe()
        assert final["misses"] == 0
        assert Fraction(final["committed_weight"]) <= state.processors

    def test_stats_consistency_under_concurrency(self, server):
        """(d): counters, histograms, and actual request counts agree."""
        _, host, port = server
        sent = {"admit": 0, "query": 0, "advance": 0}
        lock = threading.Lock()

        def worker(i):
            with AdmissionClient(host, port) as c:
                for r in range(4):
                    c.admit([spec(1, 20, f"w{i}r{r}")])
                    c.query([spec(1, 20, "probe")])
                    c.advance(1)
                with lock:
                    sent["admit"] += 4
                    sent["query"] += 4
                    sent["advance"] += 4

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with AdmissionClient(host, port) as c:
            stats = c.stats()
        counters = stats["metrics"]["counters"]["requests"]
        latency = stats["metrics"]["latency"]
        for verb, n in sent.items():
            assert counters[verb] == n
            hist = latency[f"latency.{verb}"]
            assert hist["count"] == n
            assert hist["p50_ms"] <= hist["p99_ms"] <= hist["max_ms"]
        # Cache saw the repeated probe set: one miss, then hits.
        cache = stats["cache"]
        assert cache["hits"] >= 1
        assert stats["system"]["feasible"]


class TestLifecycle:
    def test_shutdown_verb_stops_server(self):
        state = ServiceState(1)
        srv = ServerThread(state)
        host, port = srv.start()
        thread = srv._thread
        try:
            with AdmissionClient(host, port) as c:
                assert c.shutdown()["closing"]
            # The listener thread must wind down on its own.
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            srv.stop()

    def test_server_thread_context_manager_restarts_cleanly(self):
        # Two servers back to back on ephemeral ports must not collide.
        for _ in range(2):
            with ServerThread(ServiceState(1)) as (host, port):
                with AdmissionClient(host, port) as c:
                    assert c.ping()["pong"]
