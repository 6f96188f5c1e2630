"""Performance regression — the two-tier PD² kernel stack vs. itself.

Three machine-checked claims, written to
``benchmarks/out/BENCH_scaling.json`` (machine-readable, alongside the
human ``scaling.txt``):

* **Simulator throughput, per kernel**: slots/second of
  ``simulate_pfair`` through each tier — the reference heap simulator
  and the struct-of-arrays vector kernel — for N in {16, 64, 256} tasks
  on M=4, and, always, that both produce identical ``(slot, processor,
  task)`` allocations and identical stats (``decisions_identical`` per
  grid point).
* **Campaign speedup**: wall-clock of the small Fig. 3 campaign
  (N=50, 10 grid points, 25 sets/point — the first loop of
  ``bench_fig3_min_processors.py``) under the fast path (serial and with
  the warm worker pool) vs. ``--no-fastpath``, with byte-identical rows,
  plus the recorded pre-change *seed* baseline for the headline
  speedup-vs-seed number.
* **Distributed dispatch** (``distrib`` section): the same campaign
  through ``repro.distrib`` against 1 vs. 2 localhost worker *nodes*
  (subprocess ``repro worker --serve``, 2 pool jobs each) vs. the local
  pool — measuring the wire/lease overhead and the scale-out headroom,
  with ``result.json`` byte-identical across all of them.

The JSON is written with *merge* semantics: each test rewrites only its
own section, so rerunning the throughput bench preserves the committed
``campaign``/``distrib`` records and vice versa.

Two reduced modes for CI:

* ``--quick`` (the perf-smoke job): one timing rep per kernel and grid
  point, the full two-way decision-identity gate (hard), and a *soft*
  throughput floor — a ``::warning`` annotation if the vector kernel
  lands under 5x the reference anywhere, because shared runners are too
  noisy to fail on timing.  Writes ``scaling.txt`` (the uploaded
  artifact) but leaves ``BENCH_scaling.json`` untouched.
* ``REPRO_PERF_SMOKE=1`` (legacy): equality assertions only, no timing
  at all.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest
from conftest import OUT_DIR, full_scale, write_report

from repro.analysis.experiments import utilization_grid
from repro.analysis.report import format_table
from repro.campaign import run_schedulability_campaign, shutdown_worker_pool
from repro.analysis.schedulability import ANALYSIS_CACHE
from repro.sim.cache import HYPERPERIOD_CACHE
from repro.sim.quantum import simulate_pfair
from repro.util.toggles import fastpath_enabled, set_fastpath
from repro.workload.generator import TaskSetGenerator, specs_to_pfair_tasks

SLOTS = 20_000 if full_scale() else 4_000
NS = [16, 64, 256]
M = 4
CAMPAIGN = dict(n_tasks=50, points=10, sets_per_point=25, seed=50)
REPS = 3

#: Wall-clock of the CAMPAIGN configuration at the growth seed
#: (commit a480c7b^..a480c3c tree, before the fast path existed), measured
#: with this file's protocol — best of interleaved fresh-process runs —
#: on the host that produced the committed BENCH_scaling.json.  Recorded
#: as a constant so the speedup-vs-seed headline survives once the seed
#: code paths are gone; re-measure on the same host when comparing.
SEED_BASELINE_SECONDS = 0.691
SEED_BASELINE_COMMIT = "a480c3c"

_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") not in ("", "0")


def _make_tasks(n_tasks: int):
    gen = TaskSetGenerator(1, quantum=1, min_period=50, max_period=5000)
    specs = gen.generate(n_tasks, 0.85 * M)
    return specs_to_pfair_tasks(specs)


def _sim_snapshot(result):
    # Task ids are drawn from a process-global counter, so two builds of
    # the same spec list get different ids; compare by list position.
    pos = {t.task_id: i for i, t in enumerate(result.tasks)}
    allocs = ([(a[0], a[1], pos[a[2].task_id], a[3])
               for a in result.trace.allocations()]
              if result.trace is not None else None)
    s = result.stats
    return (allocs, s.slots, s.idle_quanta, s.busy_quanta,
            sorted((pos[tid], ts.quanta, ts.preemptions, ts.migrations)
                   for tid, ts in s.per_task.items()),
            sorted((pos[m.task.task_id], m.subtask_index, m.deadline,
                    m.completed_at) for m in s.misses))


#: ``simulate_pfair`` keyword sets selecting each kernel tier.
KERNELS = {
    "reference": dict(fastpath=False),
    "vector": dict(fastpath=True),
}


def _assert_sim_decisions_identical(n_tasks: int, slots: int) -> None:
    snaps = {}
    for name, kw in KERNELS.items():
        HYPERPERIOD_CACHE.clear()
        snaps[name] = _sim_snapshot(
            simulate_pfair(_make_tasks(n_tasks), M, slots, trace=True, **kw))
    assert snaps["reference"] == snaps["vector"], (
        f"vector kernel diverged from the reference at N={n_tasks}")


def _sim_rate(n_tasks: int, kernel: str, slots: int, reps: int = REPS
              ) -> float:
    best = float("inf")
    for _ in range(reps):
        tasks = _make_tasks(n_tasks)
        HYPERPERIOD_CACHE.clear()
        t0 = time.perf_counter()
        simulate_pfair(tasks, M, slots, **KERNELS[kernel])
        best = min(best, time.perf_counter() - t0)
    return slots / best


def _merge_json(section: str, value) -> str:
    """Rewrite one top-level section of BENCH_scaling.json, preserving
    the rest (campaign, distrib, ...) so benches can rerun independently."""
    os.makedirs(OUT_DIR, exist_ok=True)
    json_path = os.path.join(OUT_DIR, "BENCH_scaling.json")
    payload = {}
    if os.path.exists(json_path):
        with open(json_path) as fh:
            payload = json.load(fh)
    payload.update({
        "schema": 2,
        "generated_by": "benchmarks/bench_scaling.py",
        "full_scale": full_scale(),
        section: value,
    })
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return json_path


def _campaign_rows():
    return run_schedulability_campaign(
        CAMPAIGN["n_tasks"],
        utilization_grid(CAMPAIGN["n_tasks"], points=CAMPAIGN["points"]),
        sets_per_point=CAMPAIGN["sets_per_point"],
        seed=CAMPAIGN["seed"],
    )


def _row_snapshot(rows):
    return [(r.utilization, r.m_pd2.mean, r.m_ff.mean, r.loss_pfair.mean,
             r.loss_edf.mean, r.loss_ff.mean, r.infeasible_pd2,
             r.infeasible_ff) for r in rows]


def _timed_campaign(fastpath_on: bool, workers: int = 1):
    """Best-of-REPS cold wall-clock (caches cleared per rep) and rows."""
    prev = fastpath_enabled()
    set_fastpath(fastpath_on)
    try:
        if workers > 1:  # pay pool spawn + warm-up outside the clock
            run_schedulability_campaign(
                CAMPAIGN["n_tasks"], [CAMPAIGN["n_tasks"] / 10.0],
                sets_per_point=2, seed=0, workers=workers)
        reps, rows = [], None
        for _ in range(REPS):
            # Clears this process's cache; a warm pool's workers keep
            # theirs — exactly what repeat campaign invocations see in
            # production, and visible in the per-rep times below.
            ANALYSIS_CACHE.clear()
            t0 = time.perf_counter()
            rows = run_schedulability_campaign(
                CAMPAIGN["n_tasks"],
                utilization_grid(CAMPAIGN["n_tasks"],
                                 points=CAMPAIGN["points"]),
                sets_per_point=CAMPAIGN["sets_per_point"],
                seed=CAMPAIGN["seed"], workers=workers)
            reps.append(time.perf_counter() - t0)
        return reps, _row_snapshot(rows)
    finally:
        set_fastpath(prev)


def test_fastpath_decision_equality_smallest():
    """The CI perf-smoke contract: correctness only, no timing."""
    _assert_sim_decisions_identical(NS[0], min(SLOTS, 2000))
    prev = fastpath_enabled()
    try:
        set_fastpath(True)
        ANALYSIS_CACHE.clear()
        on = _row_snapshot(run_schedulability_campaign(
            16, utilization_grid(16, points=3), sets_per_point=5, seed=16))
        set_fastpath(False)
        off = _row_snapshot(run_schedulability_campaign(
            16, utilization_grid(16, points=3), sets_per_point=5, seed=16))
    finally:
        set_fastpath(prev)
    assert on == off, "campaign rows differ between fastpath on and off"


@pytest.mark.skipif(_SMOKE, reason="perf smoke runs equality checks only")
def test_kernel_throughput_and_campaign(benchmark, quick):
    slots = min(SLOTS, 4_000) if quick else SLOTS
    reps = 1 if quick else REPS
    benchmark.pedantic(_sim_rate, args=(NS[0], "vector", min(slots, 2000)),
                       kwargs={"reps": 1}, rounds=1, iterations=1)

    sim_points = []
    for n in NS:
        # Hard gate: both kernels, identical decisions — quick mode keeps
        # this at full strength.
        _assert_sim_decisions_identical(n, min(slots, 2000))
        rates = {k: _sim_rate(n, k, slots, reps) for k in KERNELS}
        sim_points.append({
            "n_tasks": n,
            "processors": M,
            "slots": slots,
            "slots_per_sec_reference": round(rates["reference"], 1),
            "slots_per_sec_vector": round(rates["vector"], 1),
            "speedup_vector": round(
                rates["vector"] / rates["reference"], 2),
            "decisions_identical": True,
        })

    table = format_table(
        ["N tasks", "ref kslots/s", "vec kslots/s", "vec x"],
        [[p["n_tasks"], round(p["slots_per_sec_reference"] / 1000, 1),
          round(p["slots_per_sec_vector"] / 1000, 1), p["speedup_vector"]]
         for p in sim_points],
        title=f"PD² simulator throughput over {slots} slots, M={M} "
              "(reference / vector, identical decisions)")

    # Soft throughput floor: the vector kernel targets >= 5x the
    # reference on every grid point (>= 10x on at least one, on a quiet
    # host).  Timing on shared runners is advisory — annotate, never
    # fail.
    floor = min(p["speedup_vector"] for p in sim_points)
    if floor < 5.0:
        print(f"::warning title=vector throughput floor::vector kernel "
              f"speedup {floor:.2f}x < 5x target at "
              f"N={min(sim_points, key=lambda p: p['speedup_vector'])['n_tasks']} "
              "(noisy runner, or a real regression — compare "
              "benchmarks/out/BENCH_scaling.json)")

    if quick:
        # CI artifact only: no campaign timing, no JSON rewrite (the
        # committed JSON records full-scale numbers from a quiet host).
        write_report("scaling.txt", table +
                     "\n\n[--quick mode: single rep, campaign timing "
                     "skipped; committed BENCH_scaling.json untouched]")
        return

    fast_reps, rows_fast = _timed_campaign(True)
    off_reps, rows_off = _timed_campaign(False)
    warm_reps, rows_warm = _timed_campaign(True, workers=2)
    shutdown_worker_pool()
    assert rows_fast == rows_off == rows_warm, (
        "campaign rows must be byte-identical across fastpath modes")
    t_fast, t_off, t_warm = min(fast_reps), min(off_reps), min(warm_reps)
    t_best = min(t_fast, t_warm)

    campaign = {
        "config": CAMPAIGN,
        "fastpath_seconds": round(t_fast, 3),
        "fastpath_rep_seconds": [round(t, 3) for t in fast_reps],
        "fastpath_warm_workers_seconds": round(t_warm, 3),
        "fastpath_warm_workers_rep_seconds":
            [round(t, 3) for t in warm_reps],
        "no_fastpath_seconds": round(t_off, 3),
        "no_fastpath_rep_seconds": [round(t, 3) for t in off_reps],
        "seed_baseline_seconds": SEED_BASELINE_SECONDS,
        "seed_baseline_commit": SEED_BASELINE_COMMIT,
        "speedup_vs_no_fastpath": round(t_off / t_best, 2),
        "speedup_vs_seed": round(SEED_BASELINE_SECONDS / t_best, 2),
        "rows_identical_across_modes": True,
        "note": ("serial/no-fastpath reps are cold (caches cleared); "
                 "warm-worker reps after the first reuse the "
                 "persistent pool's analysis caches, the intended "
                 "behavior of repeated campaign invocations"),
        "rows": [{"utilization": round(r[0], 4),
                  "m_pd2_mean": round(r[1], 4),
                  "m_ff_mean": round(r[2], 4)} for r in rows_fast],
    }
    json_path = _merge_json("simulator", sim_points)
    _merge_json("campaign", campaign)

    campaign_lines = (
        f"Fig. 3 campaign (N=50, 10 pts, 25 sets): "
        f"fastpath {t_fast:.3f}s | warm x2 {t_warm:.3f}s | "
        f"no-fastpath {t_off:.3f}s | seed baseline "
        f"{SEED_BASELINE_SECONDS:.3f}s "
        f"({campaign['speedup_vs_seed']}x vs seed)")
    write_report("scaling.txt", table + "\n\n" + campaign_lines +
                 f"\n[machine-readable: {json_path}]")

    # Correctness-style guards only; timing thresholds live in the JSON
    # record, not in assertions (CI runners are too noisy to gate on).
    assert all(p["slots_per_sec_vector"] > 0 for p in sim_points)


# -- distributed dispatch (docs/DISTRIBUTED.md) ---------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn_worker_node(jobs: int) -> "tuple[subprocess.Popen, str, int]":
    """Start a subprocess ``repro worker --serve`` on an ephemeral port
    (its own interpreter and its own process pool — a real node, not a
    thread) and parse the address from its startup banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--serve",
         "--port", "0", "-j", str(jobs)],
        env={**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")},
        stderr=subprocess.PIPE, text=True)
    assert proc.stderr is not None
    banner = proc.stderr.readline()
    match = re.search(r"worker node on ([0-9.]+):(\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"unexpected worker banner: {banner!r}")
    return proc, match.group(1), int(match.group(2))


def _shutdown_worker_node(proc: subprocess.Popen, host: str,
                          port: int) -> None:
    import socket as socketlib

    from repro.service.protocol import decode_line, encode

    try:
        with socketlib.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(encode({"id": 0, "verb": "shutdown"}))
            stream.flush()
            decode_line(stream.readline())
    except OSError:
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def _distrib_campaign(tmp_path, name: str, campaign: dict,
                      nodes, local_jobs: int = 0):
    """One distributed (or local-slot) run into a fresh run dir;
    returns (elapsed_seconds, result.json bytes)."""
    from repro.distrib import DistribConfig, run_distributed_campaign

    run_dir = tmp_path / name
    config = DistribConfig(local_jobs=local_jobs,
                           poll_interval_seconds=0.01,
                           status_interval_seconds=60.0)
    t0 = time.perf_counter()
    run_distributed_campaign(
        campaign["n_tasks"],
        utilization_grid(campaign["n_tasks"], points=campaign["points"]),
        sets_per_point=campaign["sets_per_point"], seed=campaign["seed"],
        nodes=nodes, run_dir=str(run_dir), config=config)
    elapsed = time.perf_counter() - t0
    return elapsed, (run_dir / "result.json").read_bytes()


def test_distrib_byte_identity_smallest(tmp_path):
    """The CI contract half of the distrib scenario: a campaign shipped
    over the wire to an in-process worker node checkpoints and assembles
    byte-identically to the pure-local engine.  Runs under
    REPRO_PERF_SMOKE too — equality only, no timing."""
    from repro.distrib import NodeSpec, WorkerServer

    small = dict(n_tasks=16, points=3, sets_per_point=5, seed=16)
    run_schedulability_campaign(
        small["n_tasks"],
        utilization_grid(small["n_tasks"], points=small["points"]),
        sets_per_point=small["sets_per_point"], seed=small["seed"],
        run_dir=str(tmp_path / "local"))
    reference = (tmp_path / "local" / "result.json").read_bytes()
    with WorkerServer(jobs=2) as (host, port):
        _, remote = _distrib_campaign(tmp_path, "remote", small,
                                      [NodeSpec(host, port)])
    shutdown_worker_pool()
    assert remote == reference, \
        "distributed result.json differs from the local engine's"


@pytest.mark.skipif(_SMOKE, reason="perf smoke runs equality checks only")
def test_distrib_scaling(tmp_path, quick):
    """1 vs. 2 localhost worker nodes on the bench campaign, against the
    local warm pool — recorded into BENCH_scaling.json's ``distrib``
    section (merged, so this test can rerun independently)."""
    from repro.distrib import NodeSpec

    if quick:
        pytest.skip("--quick runs kernel throughput + equality only")

    # Local-pool baseline through the same distributed code path
    # (local_jobs only, no wire) and through the plain engine.
    t_local, ref_bytes = _distrib_campaign(tmp_path, "local-slots",
                                           CAMPAIGN, nodes=(),
                                           local_jobs=2)

    scenarios = []
    for n_nodes in (1, 2):
        workers = [_spawn_worker_node(jobs=2) for _ in range(n_nodes)]
        nodes = [NodeSpec(host, port) for _, host, port in workers]
        try:
            # Pay each node's pool spawn/warm-up outside the clock.
            _distrib_campaign(tmp_path, f"warm-{n_nodes}",
                              dict(CAMPAIGN, points=1, sets_per_point=2),
                              nodes)
            best, result = float("inf"), b""
            for rep in range(REPS):
                elapsed, result = _distrib_campaign(
                    tmp_path, f"nodes{n_nodes}-rep{rep}", CAMPAIGN, nodes)
                best = min(best, elapsed)
        finally:
            for proc, host, port in workers:
                _shutdown_worker_node(proc, host, port)
        assert result == ref_bytes, \
            f"{n_nodes}-node result.json diverged from the local run"
        scenarios.append({"nodes": n_nodes, "jobs_per_node": 2,
                          "seconds": round(best, 3)})
    shutdown_worker_pool()

    json_path = _merge_json("distrib", {
        "config": CAMPAIGN,
        "local_pool_2_jobs_seconds": round(t_local, 3),
        "scenarios": scenarios,
        "result_bytes_identical": True,
        "note": ("subprocess worker nodes on localhost: measures the "
                 "wire/lease overhead of repro.distrib, not cluster "
                 "scale-out; nodes share the machine's cores"),
    })
    print(f"\ndistrib: local(2 jobs) {t_local:.3f}s | " +
          " | ".join(f"{s['nodes']}x2 {s['seconds']:.3f}s"
                     for s in scenarios) +
          f"\n[merged into {json_path}]")
