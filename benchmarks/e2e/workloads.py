"""The benchmark's four workloads.

Each workload is a deterministic stream of fixed-size *units* drawn from
the run's seed: unit ``i`` is the same work on every commit.  A unit is
one operation a user would wait for — one campaign call, one
``simulate_pfair`` call, one service request.  The worker
(``worker.py``) times only :meth:`Workload.op`; input preparation and
correctness checks run between operations, outside the timed region.

Checks have two tiers.  Every unit is cross-checked against an
independent computation (the reference code path, or an invariant the
paper proves).  The first :attr:`Workload.golden_units` units are also
folded into a digest that ``expected.json`` pins for seeds 1 and 2.

Why these four (see README.md): the Fig. 3 campaign is the paper's hot
path and never hits the analysis cache; trace replay runs the same
analysis layer on small, exactly rescaled, often repeated sets with many
checkpoint writes; ``sim_pd2`` is the only user of the simulator
kernels; the admission service mixes reads and writes on the analysis
cache and is the only latency-bound user.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

import repro.sim.quantum as sim_quantum
from repro.analysis.experiments import utilization_grid
from repro.analysis.schedulability import ANALYSIS_CACHE, evaluate_task_set
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.sched import run_schedulability_campaign
from repro.core.task import PeriodicTask
from repro.overheads.model import OverheadModel
from repro.service.client import AdmissionClient
from repro.service.protocol import specs_to_wire
from repro.service.server import ServerThread
from repro.service.state import ServiceState
from repro.traces.replay import (TraceGrid, build_window_payloads,
                                 evaluate_trace_shard, run_trace_campaign)
from repro.traces.swf import parse_swf
from repro.util.toggles import set_fastpath
from repro.workload.generator import TaskSetGenerator

__all__ = ["WORKLOADS", "Workload", "canonical", "sub_seed"]


def sub_seed(seed: int, *path: int) -> int:
    """A 63-bit seed derived from ``seed`` and an integer path."""
    state = np.random.SeedSequence([seed, *path]).generate_state(2)
    return int((int(state[0]) << 31) ^ int(state[1])) & ((1 << 63) - 1)


def canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _reference_path(fn: Any, *args: Any) -> Any:
    """Run ``fn`` with every fast path and cache off (the reference)."""
    set_fastpath(False)
    try:
        return fn(*args)
    finally:
        set_fastpath(None)


class Workload:
    """One seeded unit stream; subclasses fill in the hooks."""

    name = ""
    #: Units folded into the golden digest (always run, however short
    #: the run).
    golden_units = 0
    #: Leading units run untimed, before timing starts.
    warmup_units = 0
    #: The tail percentile reported as ``op_tail_ms``: at least ten
    #: samples lie beyond it at the default run length.
    tail_q = 0.90
    #: Timed units per second of ``--seconds`` (about the measured rate on
    #: the reference host), fixing each run's size independently of speed.
    rate = 1.0
    #: What one unit of ``work_per_s`` counts.
    work_unit = ""

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def unit(self, i: int) -> Any:
        """The input of unit ``i`` (untimed)."""
        raise NotImplementedError

    def op(self, payload: Any) -> Any:
        """The timed operation."""
        raise NotImplementedError

    def check(self, i: int, payload: Any, result: Any
              ) -> Tuple[int, bytes, Optional[str]]:
        """``(work done, digest bytes, failure or None)`` for one unit."""
        raise NotImplementedError

    def label(self, payload: Any) -> str:
        """The operation kind, for per-kind latency in the trace run."""
        return self.name

    def close(self) -> None:
        """Release everything :meth:`__init__` opened."""


# -- campaigns ----------------------------------------------------------------


class _CampaignWorkload(Workload):
    """Shared shape of the two campaign workloads: one campaign per unit
    into a fresh run directory, cold analysis cache (what a campaign
    user pays on every run), ``result.json`` hashed for the digest."""

    golden_units = 3
    #: 67-90 campaigns per default run: p85 leaves ten beyond it, p90
    #: would not.
    tail_q = 0.85
    work_unit = "task sets"

    def _run_dir(self, i: int) -> Path:
        run_dir = self.workdir / f"run{i}"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        return run_dir

    def unit(self, i: int) -> Any:
        ANALYSIS_CACHE.clear()
        return i, self._run_dir(i)

    def _verify_shard(self, i: int, store: CheckpointStore) -> Optional[str]:
        raise NotImplementedError

    def check(self, i: int, payload: Any, result: Any
              ) -> Tuple[int, bytes, Optional[str]]:
        _i, run_dir = payload
        store = CheckpointStore(run_dir)
        try:
            digest = hashlib.sha256(store.result_path().read_bytes()).digest()
            error = self._verify_shard(i, store)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return self.sets_per_unit, digest, error


class CampaignFig3(_CampaignWorkload):
    """Fig. 3/4 campaigns, N cycling through 50, 100, 250."""

    name = "campaign_fig3"
    rate = 5.6
    N_VALUES = (50, 100, 250)
    POINTS = 10
    SETS_PER_POINT = 6
    sets_per_unit = POINTS * SETS_PER_POINT

    def _params(self, i: int) -> Tuple[int, List[float], int]:
        n = self.N_VALUES[i % len(self.N_VALUES)]
        return n, utilization_grid(n, points=self.POINTS), sub_seed(self.seed, i)

    def label(self, payload: Any) -> str:
        return f"N={self._params(payload[0])[0]}"

    def op(self, payload: Any) -> Any:
        i, run_dir = payload
        n, grid, seed = self._params(i)
        return run_schedulability_campaign(
            n, grid, sets_per_point=self.SETS_PER_POINT, seed=seed,
            workers=1, run_dir=str(run_dir))

    def _verify_shard(self, i: int, store: CheckpointStore) -> Optional[str]:
        """Regenerate one shard's first set and evaluate it on the
        reference path; it must equal the checkpointed point."""
        n = self._params(i)[0]
        sid = f"p{i % self.POINTS:04d}r000"
        spec = store.read_shard_spec(sid)
        specs = TaskSetGenerator(spec.seed).generate(n, spec.utilization)
        want = _reference_path(evaluate_task_set, specs, OverheadModel())
        got = store.read_shard(sid)[0]
        if got != want:
            return f"unit {i} shard {sid}: {got} != reference {want}"
        return None


class TraceReplay(_CampaignWorkload):
    """Trace-replay campaigns on the committed SWF fixture."""

    name = "trace_replay"
    rate = 7.5
    WINDOWS = (0, 3600)
    UTILIZATIONS = (1.0, 2.0, 3.0)
    N_TASKS = 12
    SETS_PER_POINT = 80
    #: 40 sets per shard.  At 10 per shard, file writes took 22% of a
    #: campaign and their latency, which the calibration kernel does not
    #: track, spread the workload's timings by 10-16% from run to run.
    REPLICAS = 2
    sets_per_unit = len(WINDOWS) * len(UTILIZATIONS) * SETS_PER_POINT

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        self.trace = root / "tests" / "data" / "mini.swf"
        self.log = parse_swf(self.trace, strict=False)

    def op(self, payload: Any) -> Any:
        i, run_dir = payload
        return run_trace_campaign(
            self.trace, window_seconds=3600, window_offsets=self.WINDOWS,
            utilizations=self.UTILIZATIONS, n_tasks=self.N_TASKS,
            sets_per_point=self.SETS_PER_POINT, replicas=self.REPLICAS,
            seed=sub_seed(self.seed, i), workers=1, run_dir=str(run_dir))

    def _verify_shard(self, i: int, store: CheckpointStore) -> Optional[str]:
        """Recompute one whole shard on the reference path."""
        grid = TraceGrid.from_dict(store.load_manifest()["grid"])
        shards = grid.plan()
        spec = shards[(i * 7) % len(shards)]
        payloads, _ = build_window_payloads(self.log, grid)
        want = _reference_path(evaluate_trace_shard,
                               (spec, None, payloads[spec.shard_id]))
        if store.read_shard(spec.shard_id) != want:
            return f"unit {i} shard {spec.shard_id} differs from reference"
        return None


# -- simulator ----------------------------------------------------------------


def _sim_stats(result: Any) -> Dict[str, Any]:
    """``SimResult.stats`` with task ids replaced by list positions (ids
    come from a process-wide counter)."""
    pos = {t.task_id: k for k, t in enumerate(result.tasks)}
    s = result.stats
    return {
        "slots": s.slots, "idle": s.idle_quanta, "busy": s.busy_quanta,
        "tasks": sorted([pos[tid], ts.quanta, ts.preemptions, ts.migrations,
                         sorted(ts.job_preemptions.items())]
                        for tid, ts in s.per_task.items()),
        "misses": [[pos[m.task.task_id], m.subtask_index, m.deadline,
                    m.completed_at] for m in s.misses],
    }


class SimPD2(Workload):
    """``simulate_pfair`` calls: 80% generator-default sets (N=64, M=4),
    20% from a pool of 40 harmonic systems (N=32, M=8).

    Every fifth call is harmonic.  The pool is visited in a seeded
    order, each system twice in a row, so the second visit replays the
    first's cross-run hyperperiod memo: every seed and every run length
    (the traced run's half length included) has the same share of
    harmonic calls and of memo hits.  Seeds differ in the systems, not
    in the mix.
    """

    name = "sim_pd2"
    golden_units = 25
    rate = 27.0
    work_unit = "slots"
    SLOTS = 20_000
    HARMONIC_EVERY = 5
    POOL = 40
    #: Every REFERENCE_EVERY-th call is re-run on the reference simulator.
    REFERENCE_EVERY = 25

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        rng = np.random.default_rng(sub_seed(seed, 1 << 20))
        self.pool: List[List[Tuple[int, int]]] = []
        for _ in range(self.POOL):
            periods = rng.choice([8, 16, 32, 64], size=32).tolist()
            self.pool.append([(int(rng.integers(1, p // 4 + 1)), p)
                              for p in periods])
        self.order = rng.permutation(self.POOL).tolist()

    def _system(self, i: int) -> Tuple[List[Tuple[int, int]], int, bool]:
        if i % self.HARMONIC_EVERY == self.HARMONIC_EVERY - 1:
            visit = i // self.HARMONIC_EVERY
            return self.pool[self.order[visit // 2 % self.POOL]], 8, True
        rng = np.random.default_rng(sub_seed(self.seed, i))
        specs = TaskSetGenerator(sub_seed(self.seed, i, 1)).generate(
            64, float(rng.uniform(2.8, 3.2)))
        return [s.scaled_quanta(1000) for s in specs], 4, False

    def unit(self, i: int) -> Any:
        system, m, harmonic = self._system(i)
        return system, m, harmonic, [PeriodicTask(e, p) for e, p in system]

    def label(self, payload: Any) -> str:
        return "harmonic" if payload[2] else "generator"

    def op(self, payload: Any) -> Any:
        _system, m, _harmonic, tasks = payload
        return sim_quantum.simulate_pfair(tasks, m, self.SLOTS)

    def check(self, i: int, payload: Any, result: Any
              ) -> Tuple[int, bytes, Optional[str]]:
        system, m, _harmonic, _tasks = payload
        stats = _sim_stats(result)
        error = None
        # PD² is optimal: a set of total weight <= M never misses.
        if sum(Fraction(e, p) for e, p in system) <= m and stats["misses"]:
            error = f"unit {i}: {len(stats['misses'])} misses on a feasible set"
        elif i % self.REFERENCE_EVERY == 0:
            ref = sim_quantum.simulate_pfair(
                [PeriodicTask(e, p) for e, p in system], m, self.SLOTS,
                fastpath=False)
            if _sim_stats(ref) != stats:
                error = f"unit {i}: stats differ from the reference simulator"
        return self.SLOTS, canonical(stats), error


# -- admission service --------------------------------------------------------


#: The request mix: (kind, requests per block of 20), i.e. 55/15/10/10/
#: 5/5%.  Each block is shuffled by the seed, so every seed sends the
#: same number of each kind.  ``admit_dry`` draws from a 400-set pool
#: so repeats hit the cache; ``admit`` joins a fresh 2-task set.
MIX = (("admit_dry", 11), ("admit", 3), ("leave", 2), ("advance", 2),
       ("query", 1), ("batch_analyze", 1))


def _strip_cached(obj: Any) -> Any:
    """Drop ``cached`` flags, which depend on cache history, not answers."""
    if isinstance(obj, dict):
        return {k: _strip_cached(v) for k, v in obj.items() if k != "cached"}
    if isinstance(obj, list):
        return [_strip_cached(v) for v in obj]
    return obj


class ServiceAdmit(Workload):
    """A closed loop of one client against an in-process server (M=16)."""

    name = "service_admit"
    golden_units = 1200
    warmup_units = 1000
    #: In six runs of 3,520 requests, p99 (35 samples beyond it) spread
    #: 11% across seeds and p95 6%.
    tail_q = 0.95
    rate = 220.0
    work_unit = "requests"
    PROCESSORS = 16
    POOL = 400
    BATCH = 8
    ADVANCE_SLOTS = 50
    #: Live committed weight is kept at or below this share of M.
    LIVE_SHARE = Fraction(3, 4)

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        gen = TaskSetGenerator(sub_seed(seed, 1 << 21))
        rng = np.random.default_rng(sub_seed(seed, 1 << 22))
        self.pool = [specs_to_wire(gen.generate(32, float(rng.uniform(2, 12))))
                     for _ in range(self.POOL)]
        self.state = ServiceState(self.PROCESSORS)
        self.server: Optional[ServerThread] = ServerThread(self.state)
        host, port = self.server.start()
        self.client: Optional[AdmissionClient] = AdmissionClient(host, port)
        self.client.ping()  # the connection is served, not just accepted
        self.rng = np.random.default_rng(sub_seed(self.seed, 1 << 23))
        self.two = TaskSetGenerator(sub_seed(self.seed, 1 << 24))
        self.live: Deque[Tuple[List[str], Fraction]] = deque()
        self.live_weight = Fraction(0)
        self.pending: Optional[Tuple[List[str], Fraction]] = None
        self.block: List[str] = []

    def _leave_oldest(self) -> Dict[str, Any]:
        names, weight = self.live.popleft()
        self.live_weight -= weight
        return {"verb": "leave", "names": names}

    def unit(self, i: int) -> Any:
        self.pending = None
        if i < self.POOL:
            # The warm-up opens with one dry run of every pool set: the
            # timed mix then meets a warm cache, as the users of a
            # long-running service do.
            return "admit_dry", {"verb": "admit", "tasks": self.pool[i],
                                 "dry_run": True}
        if not self.block:
            kinds = [name for name, count in MIX for _ in range(count)]
            self.block = [kinds[k] for k in self.rng.permutation(len(kinds))]
        kind = self.block.pop()
        if kind == "admit":
            specs = self.two.generate(2, float(self.rng.uniform(0.2, 0.8)))
            weight = sum((Fraction(*s.scaled_quanta(1000)) for s in specs),
                         Fraction(0))
            if self.live and (self.live_weight + weight
                              > self.LIVE_SHARE * self.PROCESSORS):
                return "leave", self._leave_oldest()
            wire = specs_to_wire(specs)
            for k, task in enumerate(wire):
                task["name"] = f"u{i}t{k}"
            self.pending = ([t["name"] for t in wire], weight)
            return kind, {"verb": "admit", "tasks": wire}
        if kind == "leave":
            if self.live:
                return kind, self._leave_oldest()
            kind = "query"
        if kind == "advance":
            return kind, {"verb": "advance", "slots": self.ADVANCE_SLOTS}
        pick = int(self.rng.integers(self.POOL))
        if kind == "admit_dry":
            return kind, {"verb": "admit", "tasks": self.pool[pick],
                          "dry_run": True}
        if kind == "query":
            return kind, {"verb": "query", "tasks": self.pool[pick]}
        picks = [self.pool[(pick + k * 37) % self.POOL]
                 for k in range(self.BATCH)]
        return kind, {"verb": "batch-analyze", "task_sets": picks}

    def label(self, payload: Any) -> str:
        return payload[0]

    def op(self, payload: Any) -> Any:
        return self.client.send_batch([payload[1]])[0]

    def check(self, i: int, payload: Any, result: Any
              ) -> Tuple[int, bytes, Optional[str]]:
        kind = payload[0]
        error = None
        if not result.get("ok"):
            error = f"unit {i} ({kind}): {result.get('error')}"
        elif kind == "admit" and self.pending is not None \
                and result.get("admitted"):
            self.live.append(self.pending)
            self.live_weight += self.pending[1]
        elif kind == "advance" and result.get("misses"):
            # Eq. (2) admission keeps the live system feasible, and PD²
            # is optimal: the live schedule never misses.
            error = f"unit {i}: {result['misses']} misses in the live system"
        if error is None and result.get("feasible") is False:
            error = f"unit {i}: committed weight above capacity"
        return 1, canonical(_strip_cached(result)), error

    def live_tasks(self) -> int:
        """Tasks whose departure has not taken effect (trace counter)."""
        system = self.state.system
        departs = [system.departure_time(t.task_id) for t in system.tasks()]
        return sum(1 for d in departs if d is None or d > system.now)

    def close(self) -> None:
        # Server first: it drains the open connection before its loop
        # ends, instead of cancelling a connection task mid-teardown.
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.client is not None:
            self.client.close()
            self.client = None


WORKLOADS = {cls.name: cls for cls in
             (CampaignFig3, TraceReplay, SimPD2, ServiceAdmit)}
