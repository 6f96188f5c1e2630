"""Concurrency stress and lifecycle tests for the service layer.

Three concurrency properties are checked here:

* **the cross-domain cache race**: ``ANALYSIS_CACHE`` is written from the
  ``ServerThread`` event loop (service ``analyze``) and from analysis
  code on the main thread.  The stress test drives both at once — several
  client threads hammering ``admit``/``query``/``leave`` while the main
  thread runs a schedulability campaign and cached analyses of
  overlapping task sets — and then checks the system is still coherent.  Before ``LRUCache`` grew its
  internal lock this interleaving could corrupt the LRU's recency list;
  the test must pass repeatably (CI runs it three times).

* **overlapping parallel dispatches**: two threads running
  ``dispatch_jobs`` at once with different worker counts (as two
  concurrent ``batch-analyze`` requests do) must each keep one executor
  for the whole call.  A process-wide pool keyed by worker count was
  rebuilt back and forth between such callers.

* **executor shutdown at exit**: ``dispatch_jobs`` and
  ``WorkerServer.stop`` wait for an idle executor, so its manager thread
  never outlives them into interpreter exit, where its teardown can race
  CPython's exit hook and print "Exception ignored ... Bad file
  descriptor"; an executor still running an abandoned attempt is
  cancelled without a wait.

* **``ServerThread`` lifecycle robustness**: a failed ``start`` (port in
  use, or timeout) must unwind completely — no half-started daemon
  thread, retry possible — and ``stop`` must be idempotent.
"""

import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import campaign_fault_workers as fw
from repro.analysis.schedulability import ANALYSIS_CACHE, evaluate_task_set
from repro.campaign import runner, run_schedulability_campaign
from repro.campaign.runner import RunnerConfig, dispatch_jobs
from repro.overheads.model import OverheadModel
from repro.service import AdmissionClient, ServerThread, ServiceState
from repro.workload.spec import TaskSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

Q = 1000  # default quantum in ticks


def spec(e_quanta, p_quanta, name):
    return TaskSpec(e_quanta * Q, p_quanta * Q, name=name)


class TestServiceCampaignStress:
    CLIENTS = 4
    ROUNDS = 15

    def _client_worker(self, host, port, worker_id, errors):
        """admit → query → leave loops, each round a fresh task pair."""
        try:
            with AdmissionClient(host, port) as client:
                for round_no in range(self.ROUNDS):
                    names = [f"w{worker_id}.{round_no}.a",
                             f"w{worker_id}.{round_no}.b"]
                    r = client.admit([spec(1, 4, names[0]),
                                      spec(1, 5, names[1])])
                    client.query(tasks=[spec(1, 3, "probe")])
                    if r["admitted"]:
                        client.leave(*names)
        except Exception as exc:  # noqa: BLE001 — reported to the main thread
            errors.append((worker_id, exc))

    def test_concurrent_admits_during_campaign(self):
        """Service traffic on the ServerThread loop + a campaign on the
        main thread, sharing ANALYSIS_CACHE, must both finish coherent."""
        state = ServiceState(4)
        errors = []
        with ServerThread(state) as (host, port):
            threads = [
                threading.Thread(target=self._client_worker,
                                 args=(host, port, i, errors))
                for i in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            # The campaign runs serially on the main thread (workers=1).
            # Its freshly generated sets skip the cache, so the main
            # thread's cache traffic comes from the cached analyses
            # below, which read/write ANALYSIS_CACHE while the service's
            # analyze verb does the same on the loop.
            rows = run_schedulability_campaign(
                3, [0.5, 0.8, 1.1], sets_per_point=6, seed=42)
            for k in range(60):
                evaluate_task_set([spec(1, 3 + k % 4, "m.a"),
                                   spec(1, 5, "m.b")], OverheadModel())
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), \
                "client workers wedged"
        assert errors == []
        assert len(rows) == 3
        # Every client left what it admitted.  Departures are lazy (the
        # paper's Sec. 4 rules free weight at a future slot), so tasks
        # stay listed until the schedule advances — but every one of them
        # must have a departure pending, and Eq. (2) must still hold.
        description = state.describe()
        assert all(t["departs_at"] is not None for t in description["tasks"])
        assert description["feasible"]
        info = ANALYSIS_CACHE.info()
        assert info["size"] <= info["capacity"]

    def test_campaign_results_unchanged_by_concurrent_service_load(self):
        """Determinism across the race: the same campaign run with and
        without concurrent service traffic yields identical rows."""
        quiet = run_schedulability_campaign(3, [0.6, 0.9],
                                            sets_per_point=5, seed=7)
        state = ServiceState(4)
        errors = []
        with ServerThread(state) as (host, port):
            threads = [
                threading.Thread(target=self._client_worker,
                                 args=(host, port, i, errors))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            busy = run_schedulability_campaign(3, [0.6, 0.9],
                                               sets_per_point=5, seed=7)
            for t in threads:
                t.join(timeout=60)
        assert errors == []
        assert busy == quiet


class TestOverlappingDispatches:
    def test_each_dispatch_keeps_one_executor(self, tmp_path, monkeypatch):
        built = []

        class CountingExecutor(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingExecutor)
        barrier = threading.Barrier(2)
        outcomes = {}
        errors = []

        def dispatch(workers):
            # Every job sleeps, so the two calls overlap by construction.
            jobs = {f"j{i}": {"fuse": str(tmp_path / f"w{workers}-{i}"),
                              "value": 10 * workers + i, "sleep": 0.2}
                    for i in range(2 * workers)}
            done, retries = {}, []

            def on_success(key, result, attempts, elapsed):
                done.setdefault(key, []).append(result)

            try:
                barrier.wait(timeout=30)
                failed = dispatch_jobs(
                    jobs, fw.sleep_job,
                    RunnerConfig(workers=workers, poll_interval_seconds=0.01,
                                 status_interval_seconds=0.05),
                    on_success=on_success,
                    on_retry=lambda key, reason: retries.append(reason))
                outcomes[workers] = (jobs, done, retries, failed)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append((workers, exc))

        threads = [threading.Thread(target=dispatch, args=(w,))
                   for w in (2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "dispatch wedged"
        assert errors == []
        assert sorted(built) == [2, 3]
        for jobs, done, retries, failed in outcomes.values():
            assert failed == [] and retries == []
            assert done == {key: [job["value"]] for key, job in jobs.items()}


#: A short parallel dispatch, then one shard on a two-process worker
#: node, then interpreter exit.
EXIT_SCRIPT = textwrap.dedent("""
    import socket
    from math import factorial
    from repro.campaign.runner import RunnerConfig, dispatch_jobs
    from repro.campaign.spec import CampaignGrid, plan_shards
    from repro.distrib.wire import shard_run_request
    from repro.distrib.worker import WorkerServer
    from repro.service.protocol import decode_line, encode

    # Spawned pool workers import the job function by name, so it cannot
    # be defined in this ``-c`` script.
    done = {}
    dispatch_jobs({f"k{i}": i for i in range(4)}, factorial,
                  RunnerConfig(workers=2),
                  on_success=lambda k, r, a, e: done.__setitem__(k, r))
    assert done == {f"k{i}": factorial(i) for i in range(4)}
    spec = plan_shards(CampaignGrid(n_tasks=4, utilizations=(1.0,),
                                    sets_per_point=1))[0]
    with WorkerServer(jobs=2) as (host, port):
        with socket.create_connection((host, port), timeout=30) as sock:
            f = sock.makefile("rwb")
            f.write(encode({"id": 1, **shard_run_request(spec, None)}))
            f.flush()
            assert decode_line(f.readline())["ok"]
""")


class TestExecutorShutdown:
    @pytest.fixture
    def shutdowns(self, monkeypatch):
        """``(wait, cancel_futures)`` of every executor shutdown in
        ``dispatch_jobs``."""
        calls = []

        class Recording(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
        return calls

    def config(self, **kwargs):
        return RunnerConfig(workers=2, poll_interval_seconds=0.01,
                            backoff_seconds=0.01, **kwargs)

    def test_an_idle_executor_is_waited_for(self, tmp_path, shutdowns):
        jobs = {f"j{i}": {"fuse": str(tmp_path / f"f{i}"), "value": i,
                          "sleep": 0.0} for i in range(4)}
        done = {}
        dispatch_jobs(jobs, fw.sleep_job, self.config(),
                      on_success=lambda k, r, a, e: done.__setitem__(k, r))
        assert done == {key: job["value"] for key, job in jobs.items()}
        assert shutdowns == [(True, False)]

    def test_an_abandoned_attempt_is_not_waited_for(self, tmp_path,
                                                    shutdowns):
        """The first attempt times out and keeps sleeping; the retry
        finishes, and the call returns without waiting for the first."""
        jobs = {"j0": {"fuse": str(tmp_path / "f0"), "value": 7,
                       "sleep": 3.0}}
        done = {}
        started = time.monotonic()
        failed = dispatch_jobs(
            jobs, fw.sleep_job, self.config(shard_timeout=0.3),
            on_success=lambda k, r, a, e: done.__setitem__(k, r))
        assert failed == [] and done == {"j0": 7}
        assert time.monotonic() - started < 2.5
        assert shutdowns == [(False, True)]

    def test_exit_after_parallel_work_prints_no_ignored_exception(self):
        """The race is timing-dependent (a few runs in a hundred before
        the executors were waited for), so the script runs several
        times; every run must exit cleanly with an empty stderr."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for _ in range(4):
            proc = subprocess.run([sys.executable, "-c", EXIT_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "Exception ignored" not in proc.stderr, proc.stderr


class TestServerThreadLifecycle:
    def test_stop_is_idempotent(self):
        srv = ServerThread(ServiceState(1))
        srv.start()
        srv.stop()
        srv.stop()  # second stop: no-op, no error
        assert srv._thread is None

    def test_stop_without_start_is_a_noop(self):
        srv = ServerThread(ServiceState(1))
        srv.stop()
        assert srv._thread is None

    def test_failed_start_port_in_use_unwinds_completely(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            before = threading.active_count()
            srv = ServerThread(ServiceState(1), port=port)
            with pytest.raises(RuntimeError, match="failed to start"):
                srv.start()
            # No half-started daemon thread may remain.
            assert srv._thread is None
            assert threading.active_count() == before
            # stop() after the failed start is safe.
            srv.stop()
        finally:
            blocker.close()

    def test_start_can_be_retried_after_failure(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            srv = ServerThread(ServiceState(1), port=port)
            with pytest.raises(RuntimeError):
                srv.start()
            # Retry on a free ephemeral port must succeed and serve.
            srv.server.port = 0
            srv.server.address = None
            host, bound = srv.start()
            try:
                with AdmissionClient(host, bound) as client:
                    assert client.ping()["pong"]
            finally:
                srv.stop()
            assert srv._thread is None
        finally:
            blocker.close()

    def test_double_start_still_raises(self):
        srv = ServerThread(ServiceState(1))
        srv.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
        finally:
            srv.stop()
