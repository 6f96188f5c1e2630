"""Tests for the SWF trace layer: parser, mapping, windowing, grid.

The load-bearing claims, each pinned here:

* the parser is a lossless, typed view of an SWF file — the hypothesis
  round trip ``parse(serialize(log)) == log`` holds for arbitrary
  well-formed logs, and every malformed shape is rejected with a
  ``name:line`` diagnostic, never silently coerced;
* job→task mapping is pure deterministic arithmetic with exact rational
  weights, and degenerate jobs (zero runtime, anonymized width, weight
  > 1) are **rejected with named diagnostics** instead of poisoning
  ``pd2_inflate_set`` (the satellite fix);
* windowing slices by submit time relative to the log's start and
  ``scale_to_utilization`` hits its target exactly in rational
  arithmetic while preserving periods (the trace's shape); its integer
  core ``scale_executions`` equals ``round(Fraction(e) * factor)``
  clamped to ``[1, p]``, exact halves included;
* a trace payload row that no ``TaskSpec`` would accept is refused at
  construction and wire decode;
* :class:`TraceGrid` plans shards with the synthetic planner's id
  scheme and seed strides, and round-trips through its manifest form;
* ``fetch_trace`` writes only bytes that match the checksum, leaves
  nothing behind on a mismatch and refuses to read without one (driven
  offline through a ``file://`` URL), and importing the replay path
  loads no network stack.
"""

import gzip
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import POINT_SEED_STRIDE, REPLICA_SEED_STRIDE
from repro.core.rational import exact_sum
from repro.traces.mapping import (MappingConfig, TraceMappingError,
                                  job_weight, machine_size, map_job,
                                  map_jobs, scale_executions,
                                  scale_to_utilization, segment_log,
                                  window_jobs)
from repro.traces.fetch import TraceFetchError, fetch_trace, sha256_file
from repro.traces.replay import (TraceGrid, TraceWindowPayload,
                                 build_window_payloads,
                                 evaluate_trace_shard)
from repro.traces.swf import (FIELD_NAMES, SWFError, SWFJob, SWFLog,
                              parse_swf, parse_swf_text, serialize_swf)
from repro.workload.spec import TaskSpec

FIXTURE = "tests/data/mini.swf"


def make_job(**overrides):
    """An ordinary completed job; keyword overrides for the field under
    test."""
    values = dict(job_id=1, submit_time=0, wait_time=0, run_time=100,
                  used_procs=2, avg_cpu_time=-1, used_memory=-1,
                  req_procs=2, req_time=120, req_memory=-1, status=1,
                  user_id=1, group_id=1, executable=1, queue=0,
                  partition=0, preceding_job=-1, think_time=-1)
    values.update(overrides)
    return SWFJob(**values)


# ---------------------------------------------------------------------------
# Parser: structure, diagnostics, strictness


class TestParser:
    def test_fixture_parses(self):
        log = parse_swf(FIXTURE)
        assert len(log.jobs) == 28
        assert log.max_procs == 8
        assert log.unix_start_time == 1009843200
        assert log.span_seconds() == 6900
        assert log.directive("maxprocs") == "8"  # case-insensitive

    def test_field_order_matches_the_format(self):
        assert len(FIELD_NAMES) == 18
        job = parse_swf(FIXTURE).jobs[0]
        assert job.to_fields()[0] == job.job_id
        assert SWFJob.from_fields(job.to_fields()) == job

    def test_wrong_field_count_is_rejected_with_position(self):
        with pytest.raises(SWFError, match=r"<swf>:2: expected 18"):
            parse_swf_text("; MaxProcs: 4\n1 0 0 10 1\n")

    def test_non_numeric_field_names_the_column(self):
        line = " ".join(["1", "0", "0", "oops"] + ["1"] * 14)
        with pytest.raises(SWFError, match=r"field 4 \(run_time\)"):
            parse_swf_text(line)

    def test_header_after_job_is_rejected(self):
        text = "1 " + " ".join(["0"] * 17) + "\n; MaxProcs: 4\n"
        with pytest.raises(SWFError, match="header directive after"):
            parse_swf_text(text)

    def test_fractional_seconds_strict_vs_lenient(self):
        line = " ".join(["1", "0.5"] + ["1"] * 16)
        with pytest.raises(SWFError, match="strict=False"):
            parse_swf_text(line)
        log = parse_swf_text(line, strict=False)
        assert log.jobs[0].submit_time == 0  # banker's rounding of 0.5
        # Integral floats are fine even in strict mode (archive drift).
        assert parse_swf_text(" ".join(["1", "2.0"] + ["1"] * 16)
                              ).jobs[0].submit_time == 2

    def test_non_finite_field_is_rejected(self):
        line = " ".join(["1", "inf"] + ["1"] * 16)
        with pytest.raises(SWFError, match="not finite"):
            parse_swf_text(line, strict=False)

    def test_blank_lines_and_bare_comments(self):
        log = parse_swf_text("\n; just a note\n\n;\n")
        assert log.directives == (("", "just a note"), ("", ""))
        assert log.jobs == ()

    def test_fixture_round_trip_identity(self):
        log = parse_swf(FIXTURE)
        assert parse_swf_text(serialize_swf(log)) == log


# ---------------------------------------------------------------------------
# Parser: the hypothesis round trip

_KEY_ALPHABET = "abcdefghijKLMNOP0123456789_-."
_VALUE_ALPHABET = _KEY_ALPHABET + ": "

directive_keys = st.text(alphabet=_KEY_ALPHABET, min_size=1, max_size=12)
directive_values = (st.text(alphabet=_VALUE_ALPHABET, max_size=20)
                    .map(str.strip))
comments = (st.text(alphabet=_KEY_ALPHABET + " ", max_size=20)
            .map(str.strip))
directives = st.one_of(
    st.tuples(directive_keys, directive_values),
    st.tuples(st.just(""), comments))
swf_jobs = st.builds(
    SWFJob.from_fields,
    st.tuples(*[st.integers(min_value=-1, max_value=10 ** 9)
                for _ in FIELD_NAMES]))
swf_logs = st.builds(
    SWFLog,
    directives=st.tuples() | st.lists(directives, max_size=6).map(tuple),
    jobs=st.lists(swf_jobs, max_size=8).map(tuple))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(swf_logs)
    def test_parse_serialize_parse_identity(self, log):
        text = serialize_swf(log)
        reparsed = parse_swf_text(text)
        assert reparsed.jobs == log.jobs
        # Directives agree after canonicalisation (bare comments that
        # contain no colon survive verbatim; keys/values come back
        # stripped, which the strategies already guarantee).
        assert reparsed.directives == log.directives
        # Serialization is a fixed point: canonical text re-serializes
        # to the same bytes.
        assert serialize_swf(reparsed) == text


# ---------------------------------------------------------------------------
# Mapping: weights, policies, rejection diagnostics (the satellite fix)


class TestJobWeight:
    def test_exact_rational_weight(self):
        assert job_weight(make_job(req_procs=3), 8) == Fraction(3, 8)

    def test_anonymized_request_falls_back_to_allocation(self):
        job = make_job(req_procs=-1, used_procs=2)
        assert job_weight(job, 8) == Fraction(2, 8)

    def test_fully_anonymized_width_is_rejected(self):
        job = make_job(job_id=9, req_procs=-1, used_procs=-1)
        with pytest.raises(TraceMappingError, match="job 9.*anonymized"):
            job_weight(job, 8)

    def test_overwide_request_names_the_poisoned_consumer(self):
        job = make_job(job_id=4, req_procs=16)
        with pytest.raises(TraceMappingError,
                           match="job 4.*pd2_inflate_set"):
            job_weight(job, 8)


class TestMapJob:
    CFG = MappingConfig()

    def test_zero_runtime_is_rejected_with_status(self):
        job = make_job(job_id=13, run_time=0, status=0)
        with pytest.raises(TraceMappingError,
                           match=r"job 13.*run_time.*status=0"):
            map_job(job, self.CFG, 8)

    def test_runtime_policy_period_scales_with_runtime(self):
        short = map_job(make_job(run_time=100), self.CFG, 8)
        long = map_job(make_job(run_time=2000), self.CFG, 8)
        assert short.period == 100_000 and long.period == 2_000_000
        # weight 2/8 exactly, rounded onto the period
        assert short.execution == 25_000
        assert short.utilization == Fraction(1, 4)

    def test_period_clamps_and_quantum_aligns(self):
        cfg = self.CFG
        tiny = map_job(make_job(run_time=1), cfg, 8)
        assert tiny.period == cfg.min_period
        huge = map_job(make_job(run_time=10 ** 7), cfg, 8)
        assert huge.period == cfg.max_period
        odd = map_job(make_job(run_time=123), cfg, 8)
        assert odd.period % cfg.quantum == 0
        assert odd.period == 123_000

    def test_interarrival_policy_uses_the_gap(self):
        cfg = MappingConfig(policy="interarrival")
        spec = map_job(make_job(submit_time=100, run_time=500), cfg, 8,
                       next_submit=160)
        assert spec.period == 60_000  # the 60 s gap, not the runtime
        # Last job of a window (no successor) falls back to runtime.
        tail = map_job(make_job(submit_time=100, run_time=500), cfg, 8)
        assert tail.period == 500_000

    def test_cache_delay_is_deterministic_in_the_job_id(self):
        a = map_job(make_job(job_id=17), self.CFG, 8)
        assert a.cache_delay == 17 % 101
        assert a.name == "J17"


class TestMapJobs:
    def test_skip_mode_reports_degenerates(self):
        jobs = [make_job(job_id=1), make_job(job_id=2, run_time=0),
                make_job(job_id=3)]
        specs, rejected = map_jobs(jobs, MappingConfig(), max_procs=8,
                                   on_invalid="skip")
        assert [s.name for s in specs] == ["J1", "J3"]
        assert [jid for jid, _ in rejected] == [2]

    def test_raise_mode_surfaces_the_first_rejection(self):
        with pytest.raises(TraceMappingError, match="job 2"):
            map_jobs([make_job(job_id=1), make_job(job_id=2, run_time=0)],
                     MappingConfig(), max_procs=8)
        with pytest.raises(ValueError, match="on_invalid"):
            map_jobs([], MappingConfig(), max_procs=8, on_invalid="ignore")

    def test_order_is_submit_then_job_id(self):
        jobs = [make_job(job_id=2, submit_time=50),
                make_job(job_id=3, submit_time=10),
                make_job(job_id=1, submit_time=50)]
        specs, _ = map_jobs(jobs, MappingConfig(), max_procs=8)
        assert [s.name for s in specs] == ["J3", "J1", "J2"]


class TestMachineSize:
    def test_precedence_config_header_observed(self):
        log = parse_swf(FIXTURE)
        assert machine_size(log) == 8  # MaxProcs header
        assert machine_size(log, MappingConfig(max_procs=16)) == 16
        headerless = SWFLog(jobs=(make_job(req_procs=5),))
        assert machine_size(headerless) == 5
        with pytest.raises(TraceMappingError, match="machine size"):
            machine_size(SWFLog(jobs=(make_job(req_procs=-1,
                                               used_procs=-1),)))


class TestWindowing:
    def test_windows_are_relative_to_first_submit(self):
        log = parse_swf(FIXTURE)
        first = window_jobs(log, 0, 3600)
        second = window_jobs(log, 3600, 3600)
        assert len(first) == 17 and len(second) == 11
        assert window_jobs(log, 100_000, 3600) == []
        with pytest.raises(ValueError):
            window_jobs(log, -1, 3600)
        with pytest.raises(ValueError):
            window_jobs(log, 0, 0)

    def test_segment_log_covers_every_job_once(self):
        log = parse_swf(FIXTURE)
        windows = segment_log(log, 3600)
        assert [(o, len(js)) for o, js in windows] == [(0, 17), (3600, 11)]
        assert sum(len(js) for _o, js in windows) == len(log.jobs)
        assert segment_log(SWFLog(), 3600) == []


class TestScaleToUtilization:
    def test_hits_the_target_and_preserves_periods(self):
        log = parse_swf(FIXTURE)
        specs, _ = map_jobs(window_jobs(log, 0, 3600), MappingConfig(),
                            max_procs=8, on_invalid="skip")
        scaled = scale_to_utilization(specs, Fraction(5, 2))
        assert [s.period for s in scaled] == [s.period for s in specs]
        total = sum(s.utilization for s in scaled)
        assert abs(float(total) - 2.5) < 0.01  # rounding to whole ticks
        # Deterministic: same inputs, same outputs.
        assert scale_to_utilization(specs, Fraction(5, 2)) == scaled

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            scale_to_utilization([], 1.0)
        log = parse_swf(FIXTURE)
        specs, _ = map_jobs(window_jobs(log, 0, 3600), MappingConfig(),
                            max_procs=8, on_invalid="skip")
        with pytest.raises(ValueError):
            scale_to_utilization(specs, 0)


#: ``(e, p)`` rows a ``TaskSpec`` accepts, periods up to the mapping's
#: 5 s ceiling.
ROWS = st.lists(st.integers(1, 5_000_000).flatmap(
    lambda p: st.tuples(st.integers(1, p), st.just(p))),
    min_size=1, max_size=40)
TARGETS = st.one_of(
    st.sampled_from([0.5, 1.7, 4.25, 1e-9, 1e9]),
    st.floats(1e-6, 1e4, allow_nan=False, allow_infinity=False),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**4))


def rounded_oracle(rows, target):
    """``round(Fraction(e) * factor)`` clamped to ``[1, p]`` per row."""
    factor = Fraction(target) / sum(Fraction(e, p) for e, p in rows)
    return [min(p, max(1, round(Fraction(e) * factor))) for e, p in rows]


def rescale(rows, target):
    return scale_executions([e for e, _p in rows], [p for _e, p in rows],
                            target)


class TestColumnRescale:
    @settings(max_examples=300, deadline=None)
    @given(ROWS, TARGETS)
    def test_equals_rounded_fraction(self, rows, target):
        assert rescale(rows, target) == rounded_oracle(rows, target)

    @settings(max_examples=300, deadline=None)
    @given(ROWS, st.data())
    def test_exact_halves_round_to_even(self, rows, data):
        """A target that puts row ``j`` at exactly ``k + 1/2`` rounds it
        to the even neighbour, for even and odd ``k``."""
        j = data.draw(st.integers(0, len(rows) - 1))
        k = data.draw(st.integers(0, 2 * rows[j][1]))
        e, p = rows[j]
        u = exact_sum([e for e, _p in rows], [p for _e, p in rows])
        target = Fraction(2 * k + 1, 2 * e) * u
        got = rescale(rows, target)
        assert got == rounded_oracle(rows, target)
        assert got[j] == min(p, max(1, k + (k & 1)))

    def test_clamps_at_one_and_at_the_period(self):
        rows = [(1, 1000), (999, 1000), (7, 50_000)]
        assert rescale(rows, Fraction(1, 10**9)) == [1, 1, 1]
        assert rescale(rows, 10**6) == [1000, 1000, 50_000]
        assert rescale(rows, 1e6) == rounded_oracle(rows, 1e6)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError, match="empty"):
            scale_executions([], [], 1.0)
        for target in (0, -1.5, Fraction(-1, 3)):
            with pytest.raises(ValueError, match="positive"):
                scale_executions([1], [10], target)

    @settings(max_examples=200, deadline=None)
    @given(ROWS, TARGETS, st.integers(0, 100))
    def test_spec_adapter_equals_the_columns(self, rows, target, delay):
        specs = [TaskSpec(e, p, name=f"J{i}", cache_delay=(i * delay) % 101)
                 for i, (e, p) in enumerate(rows)]
        scaled = scale_to_utilization(specs, target)
        assert [s.execution for s in scaled] == rescale(rows, target)
        assert [(s.period, s.name, s.cache_delay) for s in scaled] == \
            [(s.period, s.name, s.cache_delay) for s in specs]


# ---------------------------------------------------------------------------
# TraceGrid: planning, manifest round trip, payloads


def small_grid(**overrides):
    kwargs = dict(trace_name="mini.swf", trace_sha256="0" * 64,
                  window_seconds=3600, window_offsets=(0, 3600),
                  utilizations=(1.0, 2.0), n_tasks=6, sets_per_point=4,
                  seed=5, replicas=2)
    kwargs.update(overrides)
    return TraceGrid(**kwargs)


class TestTraceGrid:
    def test_plan_uses_the_synthetic_id_scheme_and_strides(self):
        shards = small_grid().plan()
        assert [s.shard_id for s in shards] == [
            "p0000r000", "p0000r001", "p0001r000", "p0001r001",
            "p0002r000", "p0002r001", "p0003r000", "p0003r001"]
        assert shards[2].seed == 5 + POINT_SEED_STRIDE
        assert shards[3].seed == 5 + POINT_SEED_STRIDE + REPLICA_SEED_STRIDE
        assert [s.sets for s in shards[:2]] == [2, 2]
        # Point index runs window-major.
        grid = small_grid()
        assert [grid.window_of(s.point_index) for s in shards] == [
            0, 0, 0, 0, 1, 1, 1, 1]
        assert [s.utilization for s in shards[::2]] == [1.0, 2.0, 1.0, 2.0]

    def test_manifest_round_trip(self):
        grid = small_grid()
        data = json.loads(json.dumps(grid.to_dict()))
        assert data["kind"] == "trace-replay"
        assert TraceGrid.from_dict(data) == grid
        with pytest.raises(ValueError, match="kind"):
            TraceGrid.from_dict({**data, "kind": "synthetic"})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_grid(window_offsets=())
        with pytest.raises(ValueError):
            small_grid(window_offsets=(0, 0))
        with pytest.raises(ValueError):
            small_grid(utilizations=())
        with pytest.raises(ValueError):
            small_grid(n_tasks=0)
        with pytest.raises(ValueError):
            small_grid(replicas=9)


class TestPayloads:
    def test_wire_round_trip(self):
        payload = TraceWindowPayload(
            window_offset=3600, tasks=(("J1", 10, 100, 3),))
        wire = json.loads(json.dumps(payload.to_wire()))
        assert TraceWindowPayload.from_wire(wire) == payload
        with pytest.raises(ValueError):
            TraceWindowPayload.from_wire("nope")
        with pytest.raises(ValueError):
            TraceWindowPayload.from_wire({"window_offset": 0,
                                          "tasks": [["J1", 10]]})

    @pytest.mark.parametrize("row, match", [
        (["a", 5, 3, 0], "execution <= period"),
        (["a", 0, 3, 0], "execution <= period"),
        (["a", -1, 3, 0], "execution <= period"),
        (["a", 1, 0, 0], "execution <= period"),
        (["a", 1, 3, -1], "cache_delay"),
        (["a", 1, 3, 0, 9], "malformed|need"),
    ])
    def test_rows_no_task_could_have_are_refused(self, row, match):
        """Shards evaluate payload rows as columns, so the payload checks
        what a TaskSpec would, at decode and at construction."""
        good = ["J1", 10, 100, 3]
        with pytest.raises(ValueError, match=match):
            TraceWindowPayload.from_wire({"window_offset": 0,
                                          "tasks": [good, row]})
        with pytest.raises(ValueError, match=match):
            TraceWindowPayload(window_offset=0,
                               tasks=(tuple(good), tuple(row)))

    def test_payload_needs_integer_times_and_a_task(self):
        with pytest.raises(ValueError, match="integers"):
            TraceWindowPayload(window_offset=0, tasks=(("J1", 1.5, 10, 0),))
        # The wire decode refuses, rather than truncates, a non-integer.
        for bad in (1.9, "5", None, True):
            with pytest.raises(ValueError, match="integers"):
                TraceWindowPayload.from_wire(
                    {"window_offset": 0, "tasks": [["J1", bad, 10, 0]]})
        with pytest.raises(ValueError, match="at least one"):
            TraceWindowPayload.from_wire({"window_offset": 0, "tasks": []})

    def test_build_window_payloads_keys_every_shard(self):
        log = parse_swf(FIXTURE)
        grid = small_grid(trace_sha256="x" * 64)
        payloads, rejected = build_window_payloads(log, grid)
        assert set(payloads) == {s.shard_id for s in grid.plan()}
        assert payloads["p0000r000"].window_offset == 0
        assert payloads["p0003r001"].window_offset == 3600
        # The fixture's job 13 (run_time 0) is skipped, not fatal.
        assert [jid for jid, _ in rejected] == [13]
        # 17 jobs in window 0, minus the degenerate one.
        assert len(payloads["p0000r000"].tasks) == 16

    def test_empty_window_is_an_error(self):
        log = parse_swf(FIXTURE)
        grid = small_grid(window_offsets=(50_000,))
        with pytest.raises(ValueError, match="no mappable jobs"):
            build_window_payloads(log, grid)


class TestEvaluateTraceShard:
    def test_deterministic_and_wire_transparent(self):
        log = parse_swf(FIXTURE)
        grid = small_grid(utilizations=(1.5,), window_offsets=(0,),
                          replicas=1)
        payloads, _ = build_window_payloads(log, grid)
        shard = grid.plan()[0]
        direct = evaluate_trace_shard((shard, None,
                                       payloads[shard.shard_id]))
        again = evaluate_trace_shard((shard, None,
                                      payloads[shard.shard_id]))
        over_wire = evaluate_trace_shard(
            (shard, None, json.loads(json.dumps(
                payloads[shard.shard_id].to_wire()))))
        assert direct == again == over_wire
        assert len(direct) == shard.sets
        assert all(p.m_pd2 is not None for p in direct)


class TestFetchTrace:
    """``fetch_trace`` offline: a ``file://`` URL to a gzipped copy of
    the fixture stands in for the archive."""

    @pytest.fixture
    def source(self, tmp_path):
        gz = tmp_path / "mini.swf.gz"
        gz.write_bytes(gzip.compress(Path(FIXTURE).read_bytes()))
        return gz.as_uri()

    def test_matching_checksum_writes_the_decompressed_bytes(
            self, source, tmp_path):
        dest = tmp_path / "logs" / "mini.swf"
        got = fetch_trace(source, dest, sha256=sha256_file(FIXTURE).upper())
        assert got == dest
        assert dest.read_bytes() == Path(FIXTURE).read_bytes()
        assert not dest.with_name("mini.swf.part").exists()

    def test_mismatch_leaves_neither_dest_nor_part(self, source, tmp_path):
        dest = tmp_path / "mini.swf"
        with pytest.raises(TraceFetchError, match="SHA-256 mismatch"):
            fetch_trace(source, dest, sha256="0" * 64)
        assert not dest.exists()
        assert not dest.with_name("mini.swf.part").exists()

    def test_no_checksum_is_refused_before_any_read(self, source, tmp_path,
                                                    monkeypatch):
        import urllib.request

        def urlopen(*args, **kwargs):
            raise AssertionError("fetch_trace read without a checksum")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        dest = tmp_path / "mini.swf"
        with pytest.raises(TraceFetchError, match="no SHA-256 known"):
            fetch_trace(source, dest)
        assert not dest.exists()
        assert not dest.with_name("mini.swf.part").exists()


def test_replay_import_loads_no_network_stack():
    """A fresh interpreter that imports the replay path (as a CLI or a
    pool worker does) has not imported ``urllib.request``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.traces.replay; "
         "print('urllib.request' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
