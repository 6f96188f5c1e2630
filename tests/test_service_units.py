"""Unit tests for the admission service's building blocks.

Covers the wire protocol, the LRU analysis cache, the metrics registry,
and :class:`ServiceState` (transactional admission, leave/reweight
bookkeeping, cached analysis) — everything below the socket layer.  The
socket layer itself is exercised end to end in ``test_service.py``.
"""

import pytest

from repro.analysis.schedulability import task_set_cache_key, task_set_signature
from repro.overheads.model import OverheadModel
from repro.util.lru import LRUCache
from repro.util.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.service.protocol import (MAX_ADVANCE_SLOTS, MAX_BATCH_SETS,
                                    ProtocolError,
                                    decode_line, encode, error_response,
                                    ok_response, parse_request, parse_specs,
                                    parse_spec_sets)
from repro.service.state import ServiceError, ServiceState
from repro.workload.spec import TaskSpec


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        msg = {"id": 7, "verb": "ping"}
        line = encode(msg)
        assert line.endswith(b"\n")
        assert decode_line(line) == msg

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError) as exc:
            decode_line(b"{not json\n")
        assert exc.value.code == "bad-json"
        with pytest.raises(ProtocolError) as exc:
            decode_line(b"[1, 2]\n")
        assert exc.value.code == "bad-request"

    def test_parse_request_validates_verb(self):
        assert parse_request({"id": 1, "verb": "admit"}) == (1, "admit")
        with pytest.raises(ProtocolError) as exc:
            parse_request({"verb": "frobnicate"})
        assert exc.value.code == "unknown-verb"
        with pytest.raises(ProtocolError):
            parse_request({})

    def test_parse_specs(self):
        specs = parse_specs({"tasks": [
            {"execution": 250, "period": 1000, "name": "a"}]})
        assert specs[0].execution == 250 and specs[0].name == "a"
        for bad in ({}, {"tasks": []}, {"tasks": "x"},
                    {"tasks": [{"execution": "no"}]}):
            with pytest.raises(ProtocolError):
                parse_specs(bad)

    def test_parse_spec_sets(self):
        sets = parse_spec_sets({"task_sets": [
            [{"execution": 250, "period": 1000, "name": "a"}],
            [{"execution": 500, "period": 1000, "name": "b"},
             {"execution": 100, "period": 2000, "name": "c"}],
        ]})
        assert [len(s) for s in sets] == [1, 2]
        assert sets[1][0].name == "b"
        for bad in ({}, {"task_sets": []}, {"task_sets": "x"},
                    {"task_sets": [[]]}, {"task_sets": ["x"]}):
            with pytest.raises(ProtocolError):
                parse_spec_sets(bad)

    def test_parse_spec_sets_pinpoints_the_bad_set(self):
        good = [{"execution": 250, "period": 1000, "name": "a"}]
        with pytest.raises(ProtocolError) as exc:
            parse_spec_sets({"task_sets": [good, [{"execution": "no"}]]})
        assert "'task_sets[1]'" in exc.value.message

    def test_parse_spec_sets_enforces_the_batch_cap(self):
        good = [{"execution": 250, "period": 1000, "name": "a"}]
        with pytest.raises(ProtocolError) as exc:
            parse_spec_sets({"task_sets": [good] * (MAX_BATCH_SETS + 1)})
        assert str(MAX_BATCH_SETS) in exc.value.message

    def test_response_shapes(self):
        ok = ok_response(3, admitted=True)
        assert ok["ok"] and ok["id"] == 3 and ok["admitted"]
        err = error_response(None, "bad-request", "nope")
        assert not err["ok"] and err["error"]["code"] == "bad-request"


class TestCacheKey:
    def test_signature_order_and_name_insensitive(self):
        a = [TaskSpec(1, 10, name="x"), TaskSpec(2, 10, name="y")]
        b = [TaskSpec(2, 10, name="p"), TaskSpec(1, 10, name="q")]
        assert task_set_signature(a) == task_set_signature(b)

    def test_signature_distinguishes_parameters(self):
        base = [TaskSpec(1, 10)]
        assert task_set_signature(base) != task_set_signature(
            [TaskSpec(1, 10, cache_delay=5)])
        assert task_set_signature(base) != task_set_signature(
            [TaskSpec(1, 10, deadline=5)])

    def test_cache_key_stable_and_model_sensitive(self):
        specs = [TaskSpec(250, 1000)]
        m = OverheadModel()
        k1 = task_set_cache_key(specs, m)
        k2 = task_set_cache_key(list(specs), OverheadModel())
        assert k1 == k2 and isinstance(k1, str)
        assert task_set_cache_key(specs, OverheadModel(context_switch=7)) != k1
        assert task_set_cache_key(specs, OverheadModel.zero()) != k1

    def test_custom_model_uncacheable(self):
        custom = OverheadModel(sched_edf=lambda n: 1.0)
        assert custom.signature() is None
        assert task_set_cache_key([TaskSpec(1, 10)], custom) is None


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        c = LRUCache(2)
        assert c.get("a") is None
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1          # refreshes 'a'
        c.put("c", 3)                   # evicts 'b' (LRU)
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        info = c.info()
        assert info["evictions"] == 1
        assert info["hits"] == 3 and info["misses"] == 2

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(4).put("k", None)
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear_keeps_stats(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0 and c.hits == 1


class TestMetrics:
    def test_counter_labels(self):
        c = Counter()
        c.inc("admit")
        c.inc("admit")
        c.inc("leave")
        assert c.value("admit") == 2 and c.total() == 3
        assert c.as_dict() == {"admit": 2, "leave": 1}

    def test_histogram_percentiles_bracket_samples(self):
        h = LatencyHistogram()
        for ms in range(1, 101):            # 1..100 ms, uniform
            h.observe(ms / 1000.0)
        s = h.summary()
        assert s["count"] == 100
        assert s["max_ms"] == 100.0
        # p50 of U[1,100]ms is ~50ms; bucket resolution is 1-2-5/decade.
        assert 20.0 <= s["p50_ms"] <= 80.0
        assert s["p90_ms"] <= s["p99_ms"] <= s["max_ms"]

    def test_histogram_empty_and_validation(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) is None
        assert h.summary()["count"] == 0
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=[2.0, 1.0])

    def test_registry_snapshot(self):
        r = MetricsRegistry()
        r.counter("requests").inc("ping")
        r.histogram("latency.ping").observe(0.001)
        snap = r.snapshot()
        assert snap["counters"]["requests"]["ping"] == 1
        assert snap["latency"]["latency.ping"]["count"] == 1


def _specs(*pairs, prefix="t"):
    return [TaskSpec(e, p, name=f"{prefix}{i}")
            for i, (e, p) in enumerate(pairs)]


class TestServiceState:
    def test_admit_and_analysis(self):
        st = ServiceState(2)
        r = st.admit(_specs((2000, 3000), (1000, 2000)))
        assert r["admitted"] and r["feasible"]
        assert r["analysis"]["m_pd2"] >= 1
        assert r["committed_weight"] == "7/6"

    def test_admit_rejection_leaves_no_trace(self):
        st = ServiceState(1)
        st.admit(_specs((1000, 2000)))
        before = st.describe()
        # Second task of the request overflows Eq. (2): all-or-nothing.
        r = st.admit(_specs((4000, 10000), (4000, 10000), prefix="n"))
        assert not r["admitted"]
        after = st.describe()
        assert after == before
        # The names from the rejected set stay available.
        ok = st.admit(_specs((4000, 10000), prefix="n"))
        assert ok["admitted"]

    def test_dry_run_never_joins(self):
        st = ServiceState(2)
        r = st.admit(_specs((1000, 2000)), dry_run=True)
        assert r["admitted"] and r["dry_run"]
        assert st.describe()["tasks"] == []

    def test_analyze_caches(self):
        st = ServiceState(2)
        specs = _specs((2000, 10000), (8000, 11000))
        assert st.analyze(specs)["cached"] is False
        assert st.analyze(specs)["cached"] is True
        # Renamed and reordered set hits the same entry.
        renamed = [TaskSpec(8000, 11000, name="z"),
                   TaskSpec(2000, 10000, name="w")]
        assert st.analyze(renamed)["cached"] is True
        assert st.cache.info()["hits"] == 2

    def test_duplicate_name_rejected(self):
        st = ServiceState(4)
        st.admit(_specs((1000, 2000)))
        with pytest.raises(ServiceError) as exc:
            st.admit(_specs((1000, 2000)))
        assert exc.value.code == "duplicate-name"
        with pytest.raises(ServiceError):
            st.admit([TaskSpec(1000, 2000, name="a"),
                      TaskSpec(1000, 2000, name="a")])

    def test_bad_quantisation_rejected(self):
        st = ServiceState(4)
        with pytest.raises(ServiceError) as exc:
            st.admit([TaskSpec(100, 1500)])  # period not a quantum multiple
        assert exc.value.code == "bad-task"

    def test_leave_and_reweight_flow(self):
        st = ServiceState(2)
        st.admit(_specs((1000, 2000), (2000, 3000)))
        st.advance(6)
        r = st.leave(["t0"])
        assert r["departures"]["t0"] >= 6
        with pytest.raises(ServiceError):
            st.leave(["nobody"])
        rw = st.reweight("t1", 1000, 3000)
        assert rw["new"] == "t1'" and rw["joins_at"] >= st.system.now - 1
        # Run past the join; the replacement must actually execute.
        st.advance(rw["joins_at"] - st.system.now + 12)
        desc = st.describe()
        assert desc["misses"] == 0 and desc["feasible"]
        assert any(t["name"] == "t1'" for t in desc["tasks"])

    def test_advance_validation(self):
        st = ServiceState(1)
        # bool is an int subclass: True must not pass as one slot.  The
        # upper bound keeps one request from stalling the event loop.
        for bad in (0, -1, "x", None, True, False, 2.0,
                    MAX_ADVANCE_SLOTS + 1, 10**9):
            with pytest.raises(ServiceError) as exc:
                st.advance(bad)
            assert exc.value.code == "bad-request"
        assert st.system.now == 0  # no rejected request moved time
        assert st.advance(MAX_ADVANCE_SLOTS)["now"] == MAX_ADVANCE_SLOTS

    def test_analyze_batch_preserves_order_and_caches(self):
        st = ServiceState(2)
        a = _specs((2000, 10000), prefix="a")
        b = _specs((8000, 11000), prefix="b")
        st.analyze(a)  # warm the cache for one of the two sets
        results = st.analyze_batch([b, a, b])
        assert [r["cached"] for r in results] == [False, True, False]
        assert [r["n_tasks"] for r in results] == [1, 1, 1]
        assert all(r["m_pd2"] >= 1 for r in results)
        # Everything analysed above is now a hit, in any order.
        again = st.analyze_batch([a, b])
        assert [r["cached"] for r in again] == [True, True]

    def test_analyze_batch_isolates_invalid_sets(self):
        st = ServiceState(2)
        good = _specs((1000, 2000))
        bad = [TaskSpec(100, 1500, name="odd")]  # not a quantum multiple
        results = st.analyze_batch([good, bad, good])
        assert "error" in results[1] and "error" not in results[0]
        # Both copies of the good set were misses when the batch was
        # keyed (the cache fills only after the pool returns), but the
        # next request hits.
        assert [r["cached"] for r in results] == [False, False, False]
        assert st.analyze_batch([good])[0]["cached"] is True
        # The failed set is never cached: a retry recomputes (and fails
        # identically) instead of serving a poisoned entry.
        assert "error" in st.analyze_batch([bad])[0]

    def test_analyze_batch_parallel_matches_serial(self):
        st = ServiceState(2)
        sets = [_specs((1000 * (i + 1), 10000), prefix=f"s{i}")
                for i in range(4)]
        serial = st.analyze_batch(sets)
        parallel = ServiceState(2).analyze_batch(sets, 2)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "cached"}
                              for r in rows]
        assert strip(serial) == strip(parallel)
