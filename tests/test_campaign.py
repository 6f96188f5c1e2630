"""Tests for the campaign engine: planning, checkpoints, dispatch, resume.

The load-bearing claims, each pinned here:

* planning is pure and deterministic, with the historical per-point seed
  offsets, so engine campaigns reproduce pre-engine serial runs;
* every finished shard checkpoints atomically and restores exactly, so a
  run interrupted by failures or a killed worker finishes under
  ``resume`` **byte-identical** (after canonical serialization) to an
  uninterrupted run;
* the dispatcher's three failure modes — error, timeout, worker death —
  retry/recover as documented in ``docs/CAMPAIGNS.md``;
* ``status.json`` tracks shard progress, retries, and throughput while a
  run is live.

Fault injection uses the module-level workers in
``campaign_fault_workers`` (the pool can only pickle module-level
callables).
"""

import json
import os
from pathlib import Path

import pytest

import campaign_fault_workers as fw
from repro.analysis.persistence import save_campaign
from repro.campaign import (CampaignGrid, CampaignIncomplete, CampaignRunner,
                            CheckpointStore, RunDirError, RunnerConfig,
                            assemble_rows, batch_analyze, dispatch_jobs,
                            evaluate_shard, plan_shards,
                            run_schedulability_campaign)
from repro.campaign.pool import WorkerPool, discard_worker_pool
from repro.campaign.progress import ProgressTracker
from repro.campaign.spec import (POINT_SEED_STRIDE, REPLICA_SEED_STRIDE,
                                 shards_by_point)
from repro.workload.generator import TaskSetGenerator
from repro.workload.spec import TaskSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Small but non-trivial grid shared by the end-to-end tests.
GRID = CampaignGrid(n_tasks=10, utilizations=(1.0, 2.0), sets_per_point=3,
                    seed=7)

#: Fast dispatch knobs for tests (no long backoffs or status intervals).
FAST = dict(backoff_seconds=0.01, poll_interval_seconds=0.02,
            status_interval_seconds=0.05)


def rows_bytes(tmp_path, name, rows, grid):
    """Canonical serialization of campaign rows, for byte comparison."""
    path = tmp_path / name
    save_campaign(path, rows, seed=grid.seed,
                  sets_per_point=grid.sets_per_point)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Planning


class TestPlanner:
    def test_plan_is_deterministic_and_ordered(self):
        a, b = plan_shards(GRID), plan_shards(GRID)
        assert a == b
        assert [s.shard_id for s in a] == sorted(s.shard_id for s in a)

    def test_replicas_one_uses_historical_seeds(self):
        shards = plan_shards(GRID)
        assert [s.seed for s in shards] == [
            GRID.seed + POINT_SEED_STRIDE * k
            for k in range(len(GRID.utilizations))]
        assert [s.shard_id for s in shards] == ["p0000r000", "p0001r000"]
        assert all(s.sets == GRID.sets_per_point for s in shards)

    def test_replica_split_is_exact_and_seeded(self):
        grid = CampaignGrid(n_tasks=5, utilizations=(1.0,), sets_per_point=7,
                            seed=11, replicas=3)
        shards = plan_shards(grid)
        assert [s.sets for s in shards] == [3, 2, 2]  # remainder first
        assert sum(s.sets for s in shards) == 7
        assert [s.seed for s in shards] == [
            11 + REPLICA_SEED_STRIDE * r for r in range(3)]

    def test_shards_by_point_orders_replicas(self):
        grid = CampaignGrid(n_tasks=5, utilizations=(1.0, 2.0),
                            sets_per_point=4, replicas=2)
        by_point = shards_by_point(reversed(plan_shards(grid)))
        assert sorted(by_point) == [0, 1]
        for group in by_point.values():
            assert [s.replica_index for s in group] == [0, 1]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CampaignGrid(n_tasks=0, utilizations=(1.0,))
        with pytest.raises(ValueError):
            CampaignGrid(n_tasks=5, utilizations=())
        with pytest.raises(ValueError):
            CampaignGrid(n_tasks=5, utilizations=(1.0,), sets_per_point=2,
                         replicas=3)

    def test_grid_round_trips_through_manifest_form(self):
        grid = CampaignGrid(n_tasks=8, utilizations=(1.5, 2.5),
                            sets_per_point=6, seed=3, replicas=2)
        assert CampaignGrid.from_dict(
            json.loads(json.dumps(grid.to_dict()))) == grid


# ---------------------------------------------------------------------------
# Checkpoint store


class TestCheckpointStore:
    def test_shard_round_trip_is_exact(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize(GRID, model_fingerprint=None, created="t0")
        spec = plan_shards(GRID)[0]
        points = evaluate_shard((spec, None))
        store.write_shard(spec, points, attempts=1, elapsed_seconds=0.5)
        restored = store.read_shard(spec.shard_id)
        assert restored == points  # dataclass equality covers every field
        assert store.read_shard_spec(spec.shard_id) == spec
        assert store.completed_shards() == {spec.shard_id}

    def test_malformed_shard_files_are_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize(GRID, model_fingerprint=None, created="t0")
        shard_dir = tmp_path / "run" / "shards"
        (shard_dir / "p0000r000.json").write_text("{not json")
        (shard_dir / "p0001r000.json").write_text('{"format": "other"}')
        (shard_dir / "p0002r000.json").write_text('{"format": "%s", '
                                                  '"shard": 3}'
                                                  % "repro-campaign-shard-v1")
        assert store.completed_shards() == set()

    def test_initialize_is_idempotent_but_rejects_mismatches(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize(GRID, model_fingerprint="m", created="t0")
        store.initialize(GRID, model_fingerprint="m", created="t1")  # no-op
        other = CampaignGrid(n_tasks=11, utilizations=(1.0,))
        with pytest.raises(RunDirError):
            store.initialize(other, model_fingerprint="m", created="t2")
        with pytest.raises(RunDirError):
            store.initialize(GRID, model_fingerprint="other-model",
                             created="t2")

    def test_manifest_guards(self, tmp_path):
        with pytest.raises(RunDirError):
            CheckpointStore(tmp_path / "nope").load_manifest()
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(RunDirError):
            CheckpointStore(bad).load_grid()

    def test_status_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.initialize(GRID, model_fingerprint=None, created="t0")
        assert store.read_status() is None
        store.write_status({"state": "running", "shards_done": 1})
        assert store.read_status()["shards_done"] == 1


# ---------------------------------------------------------------------------
# Progress accounting


class TestProgress:
    def test_snapshot_arithmetic(self):
        p = ProgressTracker(total_shards=4)
        p.start(100.0)
        p.record_success(0.5)
        p.record_success(1.5)
        p.record_retry("error")
        p.record_retry("worker-death")
        snap = p.snapshot(102.0, state="running", updated="t")
        assert snap["state"] == "running"
        assert snap["shards_done"] == 2 and snap["shards_total"] == 4
        assert snap["retries"] == {"error": 1, "worker-death": 1}
        assert snap["elapsed_seconds"] == 2.0
        assert snap["throughput_shards_per_sec"] == 1.0
        assert snap["eta_seconds"] == 2.0
        assert snap["shard_latency"]["count"] == 2

    def test_resumed_shards_count_as_done_but_not_throughput(self):
        p = ProgressTracker(total_shards=4, completed_before_start=3)
        p.start(0.0)
        p.record_success(0.1)
        snap = p.snapshot(2.0, state="running")
        assert snap["shards_done"] == 4 and snap["shards_resumed"] == 3
        assert snap["throughput_shards_per_sec"] == 0.5  # 1 shard this run
        assert snap["eta_seconds"] is None  # nothing remaining
        assert p.finished


# ---------------------------------------------------------------------------
# Dispatch: retry, timeout, worker death


class TestDispatch:
    def run_jobs(self, jobs, worker, config):
        done = {}
        retries = []
        failed = dispatch_jobs(
            jobs, worker, config,
            on_success=lambda k, r, attempts, elapsed:
                done.__setitem__(k, (r, attempts)),
            on_retry=lambda k, reason: retries.append((k, reason)))
        return done, retries, failed

    def test_serial_retry_within_budget(self, tmp_path):
        jobs = {"a": {"fuse": str(tmp_path / "a"), "value": 1}}
        done, retries, failed = self.run_jobs(
            jobs, fw.flaky_job, RunnerConfig(workers=1, max_retries=1, **FAST))
        assert failed == [] and done["a"] == (1, 2)
        assert retries == [("a", "error")]

    def test_serial_budget_exhaustion_fails_only_that_job(self, tmp_path):
        jobs = {"a": {"fuse": str(tmp_path / "a"), "value": 1},
                "b": {"fuse": str(tmp_path / "b-pre"), "value": 2}}
        open(jobs["b"]["fuse"], "w").close()  # b succeeds first try
        done, _retries, failed = self.run_jobs(
            jobs, fw.flaky_job, RunnerConfig(workers=1, max_retries=0, **FAST))
        assert failed == ["a"]
        assert done == {"b": (2, 1)}

    def test_parallel_flaky_jobs_recover(self, tmp_path):
        jobs = {f"j{i}": {"fuse": str(tmp_path / f"f{i}"), "value": i}
                for i in range(4)}
        done, retries, failed = self.run_jobs(
            jobs, fw.flaky_job, RunnerConfig(workers=2, max_retries=2, **FAST))
        assert failed == []
        assert {k: v[0] for k, v in done.items()} == {
            f"j{i}": i for i in range(4)}
        assert all(reason == "error" for _k, reason in retries)

    def test_worker_death_is_recovered_unbudgeted(self, tmp_path):
        jobs = {"dies": {"fuse": str(tmp_path / "dies"), "value": 0},
                "ok1": {"fuse": str(tmp_path / "ok1-pre"), "value": 1},
                "ok2": {"fuse": str(tmp_path / "ok2-pre"), "value": 2}}
        open(jobs["ok1"]["fuse"], "w").close()
        open(jobs["ok2"]["fuse"], "w").close()
        done, retries, failed = self.run_jobs(
            jobs, fw.exit_job,
            RunnerConfig(workers=2, max_retries=0, **FAST))
        # max_retries=0, yet the death wave is recovered: unbudgeted.
        assert failed == []
        assert {k: v[0] for k, v in done.items()} == {
            "dies": 0, "ok1": 1, "ok2": 2}
        assert any(reason == "worker-death" for _k, reason in retries)

    def test_timeout_abandons_and_resubmits(self, tmp_path):
        jobs = {"slow": {"fuse": str(tmp_path / "slow"), "value": 9,
                         "sleep": 2.0}}
        done, retries, failed = self.run_jobs(
            jobs, fw.sleep_job,
            RunnerConfig(workers=2, max_retries=2, shard_timeout=0.3, **FAST))
        assert failed == [] and done["slow"][0] == 9
        assert ("slow", "timeout") in retries

    def test_empty_jobs(self):
        assert dispatch_jobs({}, fw.flaky_job, RunnerConfig(),
                             on_success=lambda *a: None) == []

    def test_pool_is_keyed_by_worker_count_alone(self):
        # The analysis-cache bypass is in-process only: it neither
        # rebuilds the warm pool nor reaches its workers.
        from repro.util.toggles import set_fastpath

        pool = WorkerPool()
        try:
            before = pool.get(1)
            set_fastpath(False)
            assert pool.get(1) is before
        finally:
            set_fastpath(None)
            pool.shutdown()


# ---------------------------------------------------------------------------
# Runner: checkpointed runs, crash-resume byte identity


class TestRunnerResume:
    def uninterrupted_bytes(self, tmp_path):
        runner = CampaignRunner(GRID, evaluate_shard)
        rows = assemble_rows(GRID, runner.run())
        return rows_bytes(tmp_path, "uninterrupted.json", rows, GRID)

    def test_failed_shard_then_resume_is_byte_identical(self, tmp_path,
                                                        monkeypatch):
        run_dir = tmp_path / "run"
        store = CheckpointStore(run_dir)
        monkeypatch.setenv(fw.FAIL_SHARD_ENV, "p0001r000")
        broken = CampaignRunner(GRID, fw.failing_shard, store=store,
                                config=RunnerConfig(max_retries=0, **FAST))
        with pytest.raises(CampaignIncomplete) as exc_info:
            broken.run()
        assert exc_info.value.failed == ["p0001r000"]
        assert store.read_status()["state"] == "failed"
        assert store.completed_shards() == {"p0000r000"}

        resumed = CampaignRunner(GRID, evaluate_shard, store=store,
                                 config=RunnerConfig(**FAST))
        results = resumed.run(resume=True)
        assert store.read_status()["state"] == "complete"
        assert store.read_status()["shards_resumed"] == 1
        rows = assemble_rows(GRID, results)
        assert rows_bytes(tmp_path, "resumed.json", rows, GRID) == \
            self.uninterrupted_bytes(tmp_path)

    def test_killed_worker_then_resume_is_byte_identical(self, tmp_path,
                                                         monkeypatch):
        run_dir = tmp_path / "run"
        monkeypatch.setenv(fw.DIE_SHARD_ENV, "p0000r000")
        discard_worker_pool()  # fork fresh workers that see the env var
        try:
            broken = CampaignRunner(
                GRID, fw.dying_shard, store=CheckpointStore(run_dir),
                config=RunnerConfig(workers=2, max_pool_rebuilds=1, **FAST))
            with pytest.raises(CampaignIncomplete) as exc_info:
                broken.run()
            assert "p0000r000" in exc_info.value.failed
        finally:
            discard_worker_pool()  # drop the env-poisoned pool
        monkeypatch.delenv(fw.DIE_SHARD_ENV)

        store = CheckpointStore(run_dir)
        status = store.read_status()
        assert status["state"] == "failed"
        assert status["retries"].get("worker-death")
        resumed = CampaignRunner(GRID, evaluate_shard, store=store,
                                 config=RunnerConfig(**FAST))
        rows = assemble_rows(GRID, resumed.run(resume=True))
        assert rows_bytes(tmp_path, "resumed.json", rows, GRID) == \
            self.uninterrupted_bytes(tmp_path)

    def test_existing_shards_require_resume_flag(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        CampaignRunner(GRID, evaluate_shard, store=store,
                       config=RunnerConfig(**FAST)).run()
        with pytest.raises(RunDirError):
            CampaignRunner(GRID, evaluate_shard, store=store,
                           config=RunnerConfig(**FAST)).run()

    def test_resume_without_store_is_rejected(self):
        runner = CampaignRunner(GRID, evaluate_shard)
        with pytest.raises(RunDirError):
            runner.run(resume=True)


# ---------------------------------------------------------------------------
# The public entry point


class TestRunCampaign:
    def test_parallel_replicated_checkpointed_matches_serial(self, tmp_path):
        serial = run_schedulability_campaign(
            10, [1.0, 2.0], sets_per_point=4, seed=5)
        engine = run_schedulability_campaign(
            10, [1.0, 2.0], sets_per_point=4, seed=5, workers=2, replicas=1,
            run_dir=str(tmp_path / "run"),
            config=RunnerConfig(workers=2, **FAST))
        grid = CampaignGrid(n_tasks=10, utilizations=(1.0, 2.0),
                            sets_per_point=4, seed=5)
        assert rows_bytes(tmp_path, "serial.json", serial, grid) == \
            rows_bytes(tmp_path, "engine.json", engine, grid)
        assert (tmp_path / "run" / "result.json").exists()

    def test_resume_of_complete_run_recomputes_nothing(self, tmp_path,
                                                       monkeypatch):
        run_dir = str(tmp_path / "run")
        first = run_schedulability_campaign(
            10, [1.0], sets_per_point=2, seed=1, run_dir=run_dir)
        shard_file = tmp_path / "run" / "shards" / "p0000r000.json"
        before = shard_file.read_bytes()
        # A worker that would fail loudly if any shard were recomputed.
        monkeypatch.setenv(fw.FAIL_SHARD_ENV, "p0000r000")
        runner = CampaignRunner(
            CampaignGrid(n_tasks=10, utilizations=(1.0,), sets_per_point=2,
                         seed=1),
            fw.failing_shard, store=CheckpointStore(run_dir),
            config=RunnerConfig(max_retries=0, **FAST))
        results = runner.run(resume=True)
        assert shard_file.read_bytes() == before
        grid = CampaignGrid(n_tasks=10, utilizations=(1.0,),
                            sets_per_point=2, seed=1)
        rows = assemble_rows(grid, results)
        assert rows_bytes(tmp_path, "a.json", rows, grid) == \
            rows_bytes(tmp_path, "b.json", first, grid)

    def test_replicas_change_the_split_not_the_totals(self):
        rows = run_schedulability_campaign(
            10, [2.0], sets_per_point=5, seed=2, replicas=2)
        assert rows[0].m_pd2.n + rows[0].infeasible_pd2 == 5


class TestSerialStatusWrites:
    """A serial run writes ``status.json`` once at the start, once per
    finished shard and once at the end — the per-shard write comes from
    ``on_success``, with no second tick after it."""

    @pytest.fixture
    def states(self, monkeypatch):
        states = []
        write = CheckpointStore.write_status

        def counting(store, snap):
            states.append(snap["state"])
            return write(store, snap)

        monkeypatch.setattr(CheckpointStore, "write_status", counting)
        return states

    @staticmethod
    def shard_count(run_dir):
        return len(list((run_dir / "shards").glob("*.json")))

    def test_synthetic_campaign(self, tmp_path, states):
        run_dir = tmp_path / "run"
        run_schedulability_campaign(10, [1.0, 2.0], sets_per_point=2,
                                    seed=3, replicas=2, run_dir=str(run_dir))
        shards = self.shard_count(run_dir)
        assert shards == 4
        assert states == ["running"] * (1 + shards) + ["complete"]

    def test_trace_campaign(self, tmp_path, states):
        from repro.traces.replay import run_trace_campaign

        run_dir = tmp_path / "run"
        run_trace_campaign(
            str(Path(__file__).parent / "data" / "mini.swf"),
            window_seconds=3600, window_offsets=(0, 3600),
            utilizations=(1.0, 2.0), n_tasks=6, sets_per_point=3, seed=7,
            run_dir=str(run_dir))
        shards = self.shard_count(run_dir)
        assert shards == 4
        assert states == ["running"] * (1 + shards) + ["complete"]


# ---------------------------------------------------------------------------
# Batch analysis


class TestBatchAnalyze:
    def test_mixed_batch_keeps_order_and_isolates_errors(self):
        good1 = list(TaskSetGenerator(1).generate(5, 1.5))
        good2 = list(TaskSetGenerator(2).generate(5, 2.0))
        bad = [TaskSpec(50_000, 50_000, name="full")]

        out = batch_analyze([good1, bad, good2])
        assert len(out) == 3
        assert out[0]["m_pd2"] >= 2 and out[0]["n_tasks"] == 5
        assert out[2]["m_pd2"] >= 2
        assert out[0]["m_pd2"] != out[2]["m_pd2"] or \
            out[0]["utilization"] != out[2]["utilization"]
        assert set(out[1]) == {"error"} or out[1].get("m_pd2") is None

    def test_empty_batch(self):
        assert batch_analyze([]) == []

    def test_parallel_matches_serial(self):
        sets = [list(TaskSetGenerator(s).generate(4, 1.0)) for s in range(3)]
        assert batch_analyze(sets, workers=2,
                             config=RunnerConfig(workers=2, **FAST)) == \
            batch_analyze(sets)


# ---------------------------------------------------------------------------
# CLI round trip


class TestCampaignCli:
    def test_run_status_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        base = ["--tasks", "10", "--points", "2", "--sets", "2",
                "--seed", "3"]
        assert main(["campaign", "run", run_dir] + base) == 0
        first = capsys.readouterr().out
        assert "10 tasks" in first

        assert main(["campaign", "status", run_dir]) == 0
        status_out = capsys.readouterr().out
        assert "state: complete" in status_out
        assert "shards: 2/2" in status_out

        # Re-running without resume refuses; resume re-prints the table.
        assert main(["campaign", "run", run_dir] + base) == 2
        capsys.readouterr()
        assert main(["campaign", "resume", run_dir]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first

    def test_status_of_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
        assert main(["campaign", "resume", str(tmp_path / "nope")]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Determinism: completion order, canonical bytes, hash seeds


class TestCompletionOrder:
    def test_poll_batch_is_reported_in_sorted_key_order(self):
        from repro.campaign.runner import _Attempt, _completion_order

        futs = [object() for _ in range(4)]
        pending = {futs[0]: _Attempt("p0002r000", 1, 0.0),
                   futs[1]: _Attempt("p0000r000", 1, 0.0),
                   futs[2]: _Attempt("p0001r000", 2, 0.0)}
        # A set input (as concurrent.futures.wait returns) comes back in
        # shard-key order, with stale futures (not pending) first.
        batch = set(futs)
        ordered = _completion_order(batch, pending)
        assert ordered[0] is futs[3]                   # stale sorts first
        assert [pending[f].key for f in ordered[1:]] == [
            "p0000r000", "p0001r000", "p0002r000"]


#: The two campaign kinds, as ``repro campaign run`` arguments: a
#: synthetic Fig. 3 grid and a trace replay of the committed SWF log.
CAMPAIGN_RUNS = {
    "synth": ["--tasks", "6", "--points", "2", "--sets", "2",
              "--seed", "3", "-j", "2"],
    "trace": ["--trace", str(Path(__file__).parent / "data" / "mini.swf"),
              "--windows", "2", "-j", "2"],
}


def assert_canonical(path):
    """``path`` equals its re-dump with sorted keys and the writer's
    pinned layout: compact separators for shard checkpoints, indent 2
    for every other run file."""
    text = path.read_text()
    if path.parent.name == "shards":
        layout = {"separators": (",", ":")}
    else:
        layout = {"indent": 2}
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              **layout) + "\n", path


class TestCanonicalCheckpointBytes:
    def test_status_bytes_independent_of_insertion_order(self, tmp_path):
        forward = {"state": "running", "done": 1, "total": 4}
        backward = {"total": 4, "done": 1, "state": "running"}
        a = CheckpointStore(tmp_path / "a")
        (tmp_path / "a").mkdir()
        b = CheckpointStore(tmp_path / "b")
        (tmp_path / "b").mkdir()
        a.write_status(forward)
        b.write_status(backward)
        assert (tmp_path / "a" / "status.json").read_bytes() == \
            (tmp_path / "b" / "status.json").read_bytes()

    def test_manifest_and_shard_files_are_canonical_json(self, tmp_path,
                                                         capsys):
        # Every file of a finished run of each kind: manifest, shards,
        # status.json and result.json.
        from repro.cli import main

        for kind, argv in CAMPAIGN_RUNS.items():
            run_dir = tmp_path / kind
            assert main(["campaign", "run", str(run_dir), *argv]) == 0
            files = sorted(run_dir.rglob("*.json"))
            assert {p.name for p in files} >= {
                "manifest.json", "status.json", "result.json"}
            assert len(list((run_dir / "shards").glob("*.json"))) > 1
            for path in files:
                assert_canonical(path)
        capsys.readouterr()


class TestHashSeedIndependence:
    """The same campaign under two PYTHONHASHSEED values writes the same
    bytes: set and dict hash order never reaches the output."""

    def _run(self, tmp_path, name, hash_seed, argv):
        import subprocess
        import sys

        run_dir = tmp_path / name
        env = dict(os.environ,
                   PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] /
                                  "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "run", str(run_dir),
             *argv],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return run_dir

    @pytest.mark.parametrize("kind", sorted(CAMPAIGN_RUNS))
    def test_result_bytes_identical_across_hash_seeds(self, tmp_path, kind):
        a = self._run(tmp_path, "a", "1", CAMPAIGN_RUNS[kind])
        b = self._run(tmp_path, "b", "2", CAMPAIGN_RUNS[kind])
        assert (a / "result.json").read_bytes() == \
            (b / "result.json").read_bytes()
        # The manifest's creation stamp is wall-clock provenance.
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (a, b)]
        for manifest in manifests:
            manifest.pop("created")
        assert manifests[0] == manifests[1]
        # Shard checkpoints: the determinism contract covers the format
        # tag, the shard spec and the points; attempts/elapsed/worker
        # are wall-clock provenance and explicitly excluded (see
        # write_shard).
        names_a = sorted(p.name for p in (a / "shards").glob("*.json"))
        names_b = sorted(p.name for p in (b / "shards").glob("*.json"))
        assert names_a == names_b and len(names_a) > 1
        for name in names_a:
            pa = json.loads((a / "shards" / name).read_text())
            pb = json.loads((b / "shards" / name).read_text())
            for key in ("format", "shard", "points"):
                assert pa[key] == pb[key], (name, key)
