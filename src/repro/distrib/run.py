"""Distributed campaigns end to end: grid in, byte-identical rows out.

:func:`run_distributed_campaign` is the distributed twin of
:func:`repro.campaign.sched.run_schedulability_campaign` — same grid
planning, same checkpoint store, same row assembly, same ``result.json``
serialisation — with shard evaluation farmed out through a
:class:`~repro.distrib.coordinator.Coordinator` instead of (or mixed
with) the local pool.  The byte-identity guarantee follows from three
shared pieces: shards are planned and seeded identically, wire points
reuse the checkpoint codec (JSON round-trips ints and doubles exactly),
and rows are assembled by the very same ``assemble_rows`` call — so
``result.json`` from a distributed, interrupted, resumed run matches a
pure-local uninterrupted run bit for bit (the CI ``distrib-smoke`` job
and ``tests/test_distrib.py`` both assert it).

:func:`run_distributed_trace_campaign` is the same machine pointed at a
real log: the grid is a :class:`~repro.traces.replay.TraceGrid`, each
``shard-run`` frame additionally carries its window's task pool, and
rows come from ``assemble_trace_rows`` — the coordination, leasing,
checkpointing, and resume code paths are literally shared
(:func:`_drive`), so the trace path inherits every fault-tolerance
property the synthetic path is tested for.

A ``run_dir`` is **required** here, unlike the local path: the
checkpoint run-dir *is* the coordination substrate — completed shards
on disk are exactly the shards never leased again, which is what makes
``repro campaign resume --workers ...`` correct after killing any
subset of the fleet.

Status written here extends the local schema with per-worker
attribution (from the progress tracker), per-shard lease history (from
the lease table), and the coordinator's backpressure counters.  This
file reads clocks for those snapshots and is R002 clock-exempt like
``campaign/runner.py``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Union)

from ..analysis.experiments import CampaignRow
from ..analysis.persistence import save_campaign
from ..analysis.schedulability import SchedulabilityPoint
from ..campaign.checkpoint import CheckpointStore, RunDirError
from ..campaign.progress import ProgressTracker
from ..campaign.runner import CampaignIncomplete, _utc_now
from ..campaign.sched import assemble_rows
from ..campaign.spec import CampaignGrid, GridLike
from ..overheads.model import OverheadModel
from ..traces.mapping import MappingConfig
from ..traces.replay import (TraceGrid, TraceWindowPayload,
                             assemble_trace_rows, prepare_trace_campaign)
from .coordinator import Coordinator, DistribConfig, NodeSpec

__all__ = ["run_distributed_campaign", "run_distributed_trace_campaign"]


def run_distributed_campaign(
    n_tasks: int,
    utilizations: Sequence[float],
    *,
    nodes: Sequence[NodeSpec],
    run_dir: str,
    sets_per_point: int = 50,
    seed: int = 0,
    model: Optional[OverheadModel] = None,
    progress: Optional[Callable[[str], None]] = None,
    replicas: int = 1,
    resume: bool = False,
    config: Optional[DistribConfig] = None,
) -> List[CampaignRow]:
    """The Fig. 3/4 campaign across a worker fleet (plus optional local
    slots via ``config.local_jobs``); returns the assembled rows.

    Semantics match :func:`~repro.campaign.sched.
    run_schedulability_campaign` with a durable run directory: shards
    checkpoint atomically as they arrive (now with ``worker``
    provenance), failures past the retry budget raise
    :class:`~repro.campaign.runner.CampaignIncomplete` with the
    directory left resumable, and ``KeyboardInterrupt`` writes an
    ``interrupted`` status before propagating.
    """
    grid = CampaignGrid(n_tasks=n_tasks, utilizations=tuple(utilizations),
                        sets_per_point=sets_per_point, seed=seed,
                        replicas=replicas)
    return _drive(
        grid, nodes=nodes, run_dir=run_dir, model=model, resume=resume,
        config=config, payloads=None,
        assemble=lambda results: assemble_rows(grid, results,
                                               progress=progress),
        result_note=f"campaign N={grid.n_tasks} "
                    f"({len(grid.utilizations)} points)",
        manifest_note=f"distributed: {len(nodes)} node(s)")


def run_distributed_trace_campaign(
    trace_path: Union[str, Path],
    *,
    nodes: Sequence[NodeSpec],
    run_dir: str,
    utilizations: Sequence[float] = (),
    n_tasks: int = 0,
    window_seconds: int = 3600,
    window_offsets: Sequence[int] = (0,),
    sets_per_point: int = 50,
    seed: int = 0,
    mapping: Optional[MappingConfig] = None,
    model: Optional[OverheadModel] = None,
    progress: Optional[Callable[[str], None]] = None,
    replicas: int = 1,
    resume: bool = False,
    config: Optional[DistribConfig] = None,
    grid: Optional[TraceGrid] = None,
) -> List[CampaignRow]:
    """A trace-replay campaign across a worker fleet.

    Mirrors :func:`repro.traces.replay.run_trace_campaign` the way
    :func:`run_distributed_campaign` mirrors the local synthetic path:
    the trace file is hashed and pinned (resume refuses a modified
    log), each window is mapped once here on the coordinator, and the
    payloads ride inside the ``shard-run`` frames so worker nodes need
    no access to the trace file.
    """
    pinned, payloads = prepare_trace_campaign(
        trace_path, grid, window_seconds=window_seconds,
        window_offsets=window_offsets, utilizations=utilizations,
        n_tasks=n_tasks, sets_per_point=sets_per_point, seed=seed,
        replicas=replicas, mapping=mapping, progress=progress)
    return _drive(
        pinned, nodes=nodes, run_dir=run_dir, model=model, resume=resume,
        config=config, payloads=payloads,
        assemble=lambda results: assemble_trace_rows(pinned, results,
                                                     progress=progress),
        result_note=f"trace-replay {pinned.trace_name} "
                    f"({len(pinned.window_offsets)} window(s) x "
                    f"{len(pinned.utilizations)} points, "
                    f"window={pinned.window_seconds}s)",
        manifest_note=f"distributed trace-replay: {len(nodes)} node(s)")


def _drive(grid: GridLike, *, nodes: Sequence[NodeSpec], run_dir: str,
           model: Optional[OverheadModel], resume: bool,
           config: Optional[DistribConfig],
           payloads: Optional[Mapping[str, TraceWindowPayload]],
           assemble: Callable[[Dict[str, List[SchedulabilityPoint]]],
                              List[CampaignRow]],
           result_note: str, manifest_note: str) -> List[CampaignRow]:
    """The shared coordination body: plan, restore, lease, checkpoint,
    assemble.  Synthetic and trace campaigns differ only in the grid
    that plans the shards, the optional per-shard payloads, and the
    assembler — everything fault-tolerant lives here, once."""
    store = CheckpointStore(run_dir)
    fingerprint = None if model is None else repr(model)
    store.initialize(grid, model_fingerprint=fingerprint,
                     created=_utc_now(), note=manifest_note)

    shards = grid.plan()
    by_id = {s.shard_id: s for s in shards}
    results: Dict[str, List[SchedulabilityPoint]] = {}
    done_before: Set[str] = set()

    existing = store.completed_shards() & set(by_id)
    if existing and not resume:
        raise RunDirError(
            f"{store.run_dir} already holds {len(existing)} completed "
            f"shard(s); use resume, or a fresh directory for a new run")
    if resume:
        for sid in sorted(existing):
            results[sid] = store.read_shard(sid)
        done_before = existing

    tracker = ProgressTracker(len(shards),
                              completed_before_start=len(done_before))
    tracker.start(time.monotonic())
    todo = [s for s in shards if s.shard_id not in done_before]

    def finish() -> List[CampaignRow]:
        rows = assemble(results)
        # Same save_campaign call as the local path, argument for
        # argument — the byte-identity contract.
        save_campaign(store.result_path(), rows,
                      seed=getattr(grid, "seed", 0),
                      sets_per_point=getattr(grid, "sets_per_point", 0),
                      note=result_note)
        return rows

    if not todo:
        # Everything was already checkpointed: assemble and finish
        # without touching the fleet.
        store.write_status(tracker.snapshot(time.monotonic(),
                                            state="complete",
                                            updated=_utc_now()))
        return finish()

    todo_payloads: Optional[Dict[str, Any]] = None
    if payloads is not None:
        todo_payloads = {s.shard_id: payloads[s.shard_id] for s in todo}
    coord = Coordinator(todo, model, nodes=nodes, config=config,
                        payloads=todo_payloads)

    def write_status(state: str) -> None:
        snap = tracker.snapshot(time.monotonic(), state=state,
                                updated=_utc_now())
        snap["distrib"] = coord.stats()
        snap["shards"] = coord.attribution()
        store.write_status(snap)

    def on_success(shard_id: str, points: List[SchedulabilityPoint],
                   attempts: int, elapsed: float, worker: str) -> None:
        results[shard_id] = points
        store.write_shard(by_id[shard_id], points, attempts=attempts,
                          elapsed_seconds=round(elapsed, 6), worker=worker)
        tracker.record_success(elapsed, worker)
        write_status("running")

    def on_retry(shard_id: str, reason: str,
                 worker: Optional[str]) -> None:
        tracker.record_retry(reason, worker)
        write_status("running")

    write_status("running")
    try:
        failed = coord.run(on_success=on_success, on_retry=on_retry,
                           on_tick=lambda: write_status("running"))
    except KeyboardInterrupt:
        write_status("interrupted")
        raise
    if failed:
        write_status("failed")
        raise CampaignIncomplete(failed)
    write_status("complete")
    return finish()
