"""Trace-replay campaigns: crash/resume byte identity, wire transport.

The trace path rides the stock campaign engine (same shards, same
checkpoint store, same resume logic), so the tests here mirror
``tests/test_campaign.py``'s load-bearing claims for the new grid kind:

* an interrupted trace campaign finished under ``resume`` produces a
  ``result.json`` **byte-identical** to an uninterrupted run;
* resume refuses a modified trace file (the manifest pins its SHA-256)
  and ``CheckpointStore.load_grid`` refuses trace manifests (they need
  the log back to rebuild payloads);
* distributed trace campaigns — payloads riding the ``shard-run``
  frames to a real worker node — match the local rows exactly;
* the CLI round trip: run, guarded resume (``--trace`` required),
  identical tables.
"""

import shutil

import pytest

import campaign_fault_workers as fw
from repro.analysis.persistence import save_campaign
from repro.campaign import (CampaignIncomplete, CheckpointStore,
                            RunDirError, RunnerConfig)
from repro.traces.replay import (TraceGrid, evaluate_trace_shard,
                                 run_trace_campaign)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

FIXTURE = "tests/data/mini.swf"

#: Small grid arguments shared by the end-to-end tests.
ARGS = dict(window_seconds=3600, window_offsets=(0, 3600),
            utilizations=(1.0, 2.0), n_tasks=6, sets_per_point=3, seed=7)

#: Fast dispatch knobs (no long backoffs or status intervals).
FAST = dict(backoff_seconds=0.01, poll_interval_seconds=0.02,
            status_interval_seconds=0.05)


def rows_bytes(tmp_path, name, rows, *, seed=7, sets=3):
    path = tmp_path / name
    save_campaign(path, rows, seed=seed, sets_per_point=sets)
    return path.read_bytes()


class TestRunTraceCampaign:
    def test_rows_cover_the_window_major_grid(self, tmp_path):
        rows = run_trace_campaign(FIXTURE, **ARGS)
        assert len(rows) == 4  # 2 windows x 2 utilizations
        assert [r.utilization for r in rows] == [1.0, 2.0, 1.0, 2.0]
        assert all(r.n_tasks == 6 for r in rows)
        assert all(r.m_pd2.n + r.infeasible_pd2 == 3 for r in rows)

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_trace_campaign(FIXTURE, **ARGS)
        parallel = run_trace_campaign(
            FIXTURE, **ARGS, workers=2,
            config=RunnerConfig(workers=2, **FAST))
        assert rows_bytes(tmp_path, "serial.json", serial) == \
            rows_bytes(tmp_path, "parallel.json", parallel)

    def test_failed_shard_then_resume_is_byte_identical(self, tmp_path,
                                                        monkeypatch):
        run_dir = str(tmp_path / "run")
        monkeypatch.setenv(fw.FAIL_SHARD_ENV, "p0002r000")
        with pytest.raises(CampaignIncomplete) as exc_info:
            run_trace_campaign(FIXTURE, **ARGS, run_dir=run_dir,
                               evaluator=fw.failing_trace_shard,
                               config=RunnerConfig(max_retries=0, **FAST))
        assert exc_info.value.failed == ["p0002r000"]
        store = CheckpointStore(run_dir)
        assert store.read_status()["state"] == "failed"
        assert store.completed_shards() == {"p0000r000", "p0001r000",
                                            "p0003r000"}
        monkeypatch.delenv(fw.FAIL_SHARD_ENV)

        # Resume rebuilds the grid from the manifest, like the CLI does.
        grid = TraceGrid.from_dict(store.load_manifest()["grid"])
        resumed = run_trace_campaign(FIXTURE, grid=grid, run_dir=run_dir,
                                     resume=True,
                                     config=RunnerConfig(**FAST))
        assert store.read_status()["state"] == "complete"
        assert store.read_status()["shards_resumed"] == 3

        untouched = run_trace_campaign(FIXTURE, **ARGS)
        assert rows_bytes(tmp_path, "resumed.json", resumed) == \
            rows_bytes(tmp_path, "untouched.json", untouched)
        assert (tmp_path / "run" / "result.json").exists()

    def test_resume_refuses_a_modified_trace(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_trace_campaign(FIXTURE, **ARGS, run_dir=run_dir)
        store = CheckpointStore(run_dir)
        grid = TraceGrid.from_dict(store.load_manifest()["grid"])
        altered = tmp_path / "altered.swf"
        shutil.copy(FIXTURE, altered)
        with altered.open("a") as fh:
            fh.write("99 6901 0 50 1 -1 -1 1 60 -1 1 1 1 1 0 0 -1 -1\n")
        with pytest.raises(ValueError, match="SHA-256"):
            run_trace_campaign(str(altered), grid=grid, run_dir=run_dir,
                               resume=True)

    def test_load_grid_refuses_trace_manifests(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_trace_campaign(FIXTURE, **ARGS, run_dir=run_dir)
        with pytest.raises(RunDirError, match="--trace"):
            CheckpointStore(run_dir).load_grid()


class TestDistributedTrace:
    def test_worker_fleet_matches_local_rows(self, tmp_path):
        from repro.distrib import Coordinator, NodeSpec, WorkerServer

        server = WorkerServer("127.0.0.1", 0, jobs=1)
        host, port = server.start()
        try:
            distributed = run_trace_campaign(
                FIXTURE, run_dir=str(tmp_path / "run"),
                dispatcher=Coordinator([NodeSpec(host, port)]), **ARGS)
        finally:
            server.stop()
        local = run_trace_campaign(FIXTURE, **ARGS)
        assert rows_bytes(tmp_path, "dist.json", distributed) == \
            rows_bytes(tmp_path, "local.json", local)
        # Shard checkpoints carry worker attribution.
        status = CheckpointStore(str(tmp_path / "run")).read_status()
        assert status["state"] == "complete"

    def test_wire_payload_reaches_the_evaluator(self):
        from repro.distrib.wire import parse_shard_run, shard_run_request
        from repro.traces.replay import build_window_payloads
        from repro.traces.swf import parse_swf

        grid = TraceGrid(trace_name="mini.swf", trace_sha256="0" * 64,
                         **ARGS)
        payloads, _ = build_window_payloads(parse_swf(FIXTURE), grid)
        shard = grid.plan()[0]
        frame = shard_run_request(shard, None,
                                  payloads[shard.shard_id].to_wire())
        spec, model, trace = parse_shard_run(frame)
        assert evaluate_trace_shard((spec, model, trace)) == \
            evaluate_trace_shard((shard, None, payloads[shard.shard_id]))


class TestTraceCampaignCli:
    BASE = ["--trace", FIXTURE, "--window", "3600", "--windows", "2",
            "--tasks", "6", "--points", "2", "--sets", "2", "--seed", "3"]

    def test_run_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        assert main(["campaign", "run", run_dir] + self.BASE) == 0
        first = capsys.readouterr().out
        assert first.count("[trace window @") == 2

        # A fresh run on the same directory refuses.
        assert main(["campaign", "run", run_dir] + self.BASE) == 2
        capsys.readouterr()

        # Resume without the log is guarded with a pointed message.
        assert main(["campaign", "resume", run_dir]) == 2
        err = capsys.readouterr().err
        assert "--trace" in err and "trace-replay" in err

        assert main(["campaign", "resume", run_dir,
                     "--trace", FIXTURE]) == 0
        assert capsys.readouterr().out == first

        # status works on trace run dirs (grid dict is passthrough).
        assert main(["campaign", "status", run_dir]) == 0
        assert "state: complete" in capsys.readouterr().out

    def test_synthetic_resume_rejects_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        assert main(["campaign", "run", run_dir, "--tasks", "8",
                     "--points", "1", "--sets", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", run_dir,
                     "--trace", FIXTURE]) == 2
        assert "synthetic" in capsys.readouterr().err

    def test_missing_trace_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["campaign", "run", str(tmp_path / "run"),
                   "--trace", str(tmp_path / "nope.swf")])
        assert rc == 2
        capsys.readouterr()
