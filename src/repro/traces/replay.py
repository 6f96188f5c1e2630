"""Trace-replay campaigns: real SWF windows through the shard engine.

A synthetic campaign samples task sets from the paper's uniform
distributions; a *trace-replay* campaign draws them from a real log
instead.  The pipeline:

1. the trace is parsed and cut into windows
   (:func:`~repro.traces.mapping.window_jobs`), each window's jobs
   mapped once — deterministically — into a pool of
   :class:`~repro.workload.spec.TaskSpec`\\ s
   (:class:`TraceWindowPayload`);
2. a :class:`TraceGrid` decomposes (window × utilization) points into
   the **same** :class:`~repro.campaign.spec.ShardSpec` records the
   synthetic planner emits — same id scheme, same seed strides — so
   the whole PR-5/PR-6 stack (checkpoints, resume, status, worker
   fleets) runs unchanged;
3. :func:`evaluate_trace_shard` is the picklable worker: it subsamples
   ``n_tasks`` specs from the window pool with the shard's seeded RNG,
   rescales the subsample to the shard's target utilization (periods —
   the trace's shape — untouched), and pushes it through the standard
   ``evaluate_task_set``.  Checkpoints therefore hold ordinary
   :class:`~repro.analysis.schedulability.SchedulabilityPoint` records
   and the resume guarantee is inherited, not re-proven.

Seeding follows docs/DETERMINISM.md to the letter: the only RNG is
``default_rng(shard seed)``, and shard seeds come from the campaign
planner's pure arithmetic — no clock, no global RNG, nothing
order-dependent.  Running a trace campaign twice, or killing it and
resuming, yields byte-identical results (the crash/resume test in
``tests/test_trace_campaign.py`` asserts exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..analysis.experiments import CampaignRow
from ..analysis.persistence import save_campaign
from ..analysis.schedulability import SchedulabilityPoint, evaluate_task_set
from ..campaign.checkpoint import CheckpointStore
from ..campaign.runner import CampaignRunner, Dispatcher, RunnerConfig
from ..campaign.sched import campaign_row
from ..campaign.spec import ShardSpec, point_shards, shards_by_point
from ..overheads.model import OverheadModel
from ..workload.spec import TaskSpec
from .fetch import sha256_file
from .mapping import MappingConfig, machine_size, map_jobs, \
    scale_to_utilization, window_jobs
from .swf import SWFLog, parse_swf

__all__ = ["TRACE_GRID_KIND", "TraceGrid", "TraceWindowPayload",
           "build_window_payloads", "prepare_trace_campaign",
           "evaluate_trace_shard", "assemble_trace_rows",
           "run_trace_campaign"]

#: Manifest tag distinguishing trace-replay manifests from synthetic
#: ones (``CheckpointStore.load_grid`` refuses grids carrying a kind).
TRACE_GRID_KIND = "trace-replay"


@dataclass(frozen=True)
class TraceGrid:
    """A trace-replay campaign: (window × utilization) grid over one log.

    Pure data, like :class:`~repro.campaign.spec.CampaignGrid`, and
    :class:`~repro.campaign.spec.GridLike`: ``plan()`` decomposes the
    grid into ordinary shards with the historical seed strides, point
    index running window-major (all utilizations of window 0, then
    window 1, ...).  ``trace_sha256`` pins the input: resume refuses a
    trace file whose bytes changed under the run directory.
    """

    trace_name: str
    trace_sha256: str
    window_seconds: int
    window_offsets: Tuple[int, ...]
    utilizations: Tuple[float, ...]
    n_tasks: int
    sets_per_point: int = 50
    seed: int = 0
    replicas: int = 1
    mapping: MappingConfig = field(default_factory=MappingConfig)

    def __post_init__(self) -> None:
        if self.window_seconds < 1:
            raise ValueError("window_seconds must be positive")
        if not self.window_offsets:
            raise ValueError("a trace campaign needs at least one window")
        if not self.utilizations:
            raise ValueError("a trace campaign needs at least one "
                             "utilization point")
        if any(o < 0 for o in self.window_offsets):
            raise ValueError("window offsets must be nonnegative")
        if len(set(self.window_offsets)) != len(self.window_offsets):
            raise ValueError("window offsets must be distinct")
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be positive, got {self.n_tasks}")
        if self.sets_per_point < 1:
            raise ValueError("sets_per_point must be positive")
        if not 1 <= self.replicas <= self.sets_per_point:
            raise ValueError(
                f"replicas must be in [1, sets_per_point], got "
                f"{self.replicas} (sets_per_point={self.sets_per_point})")
        object.__setattr__(self, "window_offsets",
                           tuple(int(o) for o in self.window_offsets))
        object.__setattr__(self, "utilizations",
                           tuple(float(u) for u in self.utilizations))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, stored verbatim in a run's manifest."""
        return {
            "kind": TRACE_GRID_KIND,
            "trace_name": self.trace_name,
            "trace_sha256": self.trace_sha256,
            "window_seconds": self.window_seconds,
            "window_offsets": list(self.window_offsets),
            "utilizations": list(self.utilizations),
            "n_tasks": self.n_tasks,
            "sets_per_point": self.sets_per_point,
            "seed": self.seed,
            "replicas": self.replicas,
            "mapping": self.mapping.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceGrid":
        """Rebuild a grid from its manifest form."""
        if data.get("kind") != TRACE_GRID_KIND:
            raise ValueError(f"not a {TRACE_GRID_KIND} grid: "
                             f"kind={data.get('kind')!r}")
        return cls(trace_name=data["trace_name"],
                   trace_sha256=data["trace_sha256"],
                   window_seconds=data["window_seconds"],
                   window_offsets=tuple(data["window_offsets"]),
                   utilizations=tuple(data["utilizations"]),
                   n_tasks=data["n_tasks"],
                   sets_per_point=data["sets_per_point"],
                   seed=data["seed"],
                   replicas=data.get("replicas", 1),
                   mapping=MappingConfig.from_dict(data["mapping"]))

    def window_of(self, point_index: int) -> int:
        """The window index owning a planner point (window-major)."""
        return point_index // len(self.utilizations)

    def plan(self) -> List[ShardSpec]:
        """The full ordered shard list — identical id scheme and seed
        arithmetic as the synthetic planner, points window-major."""
        points = [u for _ in self.window_offsets for u in self.utilizations]
        return [shard
                for k, u in enumerate(points)
                for shard in point_shards(
                    k, u, n_tasks=self.n_tasks,
                    sets_per_point=self.sets_per_point,
                    replicas=self.replicas, seed=self.seed)]


@dataclass(frozen=True)
class TraceWindowPayload:
    """One window's mapped task pool, in wire-friendly form.

    ``tasks`` holds ``(name, execution, period, cache_delay)`` tuples —
    plain ints and strings so the payload pickles for the process pool
    and JSON-encodes for the distrib wire without custom codecs.
    """

    window_offset: int
    tasks: Tuple[Tuple[str, int, int, int], ...]

    def specs(self) -> List[TaskSpec]:
        """The pool as :class:`TaskSpec` records."""
        return [TaskSpec(execution=e, period=p, name=n, cache_delay=d)
                for n, e, p, d in self.tasks]

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready form for the distrib ``run`` frame."""
        return {"window_offset": self.window_offset,
                "tasks": [list(t) for t in self.tasks]}

    @classmethod
    def from_wire(cls, data: Any) -> "TraceWindowPayload":
        """Decode a wire payload; raises ``ValueError`` on junk (the
        worker maps that to a protocol error, mirroring shard decode)."""
        if not isinstance(data, dict):
            raise ValueError(f"trace payload must be an object, got "
                             f"{type(data).__name__}")
        try:
            offset = int(data["window_offset"])
            tasks = tuple(
                (str(t[0]), int(t[1]), int(t[2]), int(t[3]))
                for t in data["tasks"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"malformed trace payload: {exc}") from exc
        return cls(window_offset=offset, tasks=tasks)


def build_window_payloads(log: SWFLog, grid: TraceGrid
                          ) -> Tuple[Dict[str, TraceWindowPayload],
                                     List[Tuple[int, str]]]:
    """Map every grid window once; key the payloads by shard id.

    Returns ``(payloads, rejected)`` — ``rejected`` aggregates the
    degenerate jobs skipped across windows (real logs carry failed
    records with ``run_time`` 0; see the satellite-fix contract in
    :func:`~repro.traces.mapping.map_job`).  A window with *no*
    mappable jobs is an error: a shard cannot subsample an empty pool.
    """
    max_procs = machine_size(log, grid.mapping)
    per_window: List[TraceWindowPayload] = []
    rejected: List[Tuple[int, str]] = []
    for offset in grid.window_offsets:
        jobs = window_jobs(log, offset, grid.window_seconds)
        specs, bad = map_jobs(jobs, grid.mapping, max_procs=max_procs,
                              on_invalid="skip")
        rejected.extend(bad)
        if not specs:
            raise ValueError(
                f"{log.name}: window at offset {offset}s "
                f"(width {grid.window_seconds}s) has no mappable jobs "
                f"— {len(jobs)} record(s), all degenerate or absent; "
                f"pick another offset or widen the window")
        per_window.append(TraceWindowPayload(
            window_offset=offset,
            tasks=tuple((s.name, s.execution, s.period, s.cache_delay)
                        for s in specs)))
    payloads = {shard.shard_id: per_window[grid.window_of(shard.point_index)]
                for shard in grid.plan()}
    return payloads, rejected


def evaluate_trace_shard(
    args: Tuple[ShardSpec, Optional[OverheadModel],
                Union[TraceWindowPayload, Dict[str, Any]]]
) -> List[SchedulabilityPoint]:
    """Worker for one trace shard — module-level so it pickles.

    Each of the shard's ``sets`` samples is a seeded subsample of the
    window pool (``n_tasks`` specs without replacement, kept in pool
    order), rescaled exactly to the shard's target total utilization.
    The only randomness is ``default_rng(spec.seed)``, and the seed is
    planner arithmetic — same shard, same points, on any worker, any
    run, any resume.  Pools smaller than ``n_tasks`` are used whole
    (every sample identical — the window simply has that many jobs).
    """
    spec, model, payload = args
    if model is None:
        model = OverheadModel()
    if not isinstance(payload, TraceWindowPayload):
        payload = TraceWindowPayload.from_wire(payload)
    base = payload.specs()
    rng = np.random.default_rng(spec.seed)
    points: List[SchedulabilityPoint] = []
    for _ in range(spec.sets):
        if len(base) > spec.n_tasks:
            picked = sorted(rng.choice(len(base), size=spec.n_tasks,
                                       replace=False).tolist())
            chosen = [base[i] for i in picked]
        else:
            chosen = list(base)
        scaled = scale_to_utilization(chosen, spec.utilization)
        points.append(evaluate_task_set(scaled, model))
    return points


def assemble_trace_rows(grid: TraceGrid,
                        results: Mapping[str, List[SchedulabilityPoint]],
                        progress: Optional[Callable[[str], None]] = None
                        ) -> List[CampaignRow]:
    """Aggregate shard points into rows, window-major point order.

    Same statistics code as the synthetic assembler — replicas
    concatenate in replica order, never completion order — with one row
    per (window, utilization) point.  Group rows back into windows with
    ``len(grid.utilizations)``-sized slices (the CLI does, per figure).
    """
    by_point = shards_by_point(grid.plan())
    rows: List[CampaignRow] = []
    for k in sorted(by_point):
        u = grid.utilizations[k % len(grid.utilizations)]
        offset = grid.window_offsets[grid.window_of(k)]
        points: List[SchedulabilityPoint] = []
        for shard in by_point[k]:
            points.extend(results[shard.shard_id])
        if progress is not None:
            progress(f"window@{offset}s U={u:.2f}: "
                     f"{len(points)} sets evaluated")
        rows.append(campaign_row(points, grid.n_tasks, u))
    return rows


def prepare_trace_campaign(
    trace_path: Union[str, Path],
    grid: Optional[TraceGrid],
    *,
    window_seconds: int,
    window_offsets: Sequence[int],
    utilizations: Sequence[float],
    n_tasks: int,
    sets_per_point: int,
    seed: int,
    replicas: int,
    mapping: Optional[MappingConfig],
    progress: Optional[Callable[[str], None]],
) -> Tuple[TraceGrid, Dict[str, TraceWindowPayload]]:
    """Pin the trace and map its windows: ``(grid, payloads)``.

    The trace file is hashed before anything else.  With an explicit
    ``grid`` (the resume path — rebuilt from the run's manifest) the
    hash must match the grid's pinned ``trace_sha256``, so a resumed
    run can never silently mix windows from a modified log; otherwise a
    fresh grid pins the hash.  The log is then parsed leniently and
    every window mapped once (:func:`build_window_payloads`).

    Lenient parsing (``strict=False``) is deliberate here: archive logs
    carry fractional seconds, and the campaign entry points are where
    real files enter.  The strict default stays on the library parser.
    """
    path = Path(trace_path)
    digest = sha256_file(path)
    if grid is None:
        grid = TraceGrid(trace_name=path.name, trace_sha256=digest,
                         window_seconds=window_seconds,
                         window_offsets=tuple(window_offsets),
                         utilizations=tuple(utilizations),
                         n_tasks=n_tasks, sets_per_point=sets_per_point,
                         seed=seed, replicas=replicas,
                         mapping=mapping or MappingConfig())
    elif digest != grid.trace_sha256:
        raise ValueError(
            f"{path}: SHA-256 {digest} does not match the campaign's "
            f"pinned trace {grid.trace_sha256} ({grid.trace_name}) — "
            f"the log changed since the run started; resume needs the "
            f"original file")
    log = parse_swf(path, strict=False)
    payloads, rejected = build_window_payloads(log, grid)
    if rejected and progress is not None:
        progress(f"skipped {len(rejected)} degenerate job(s) "
                 f"(zero runtime / unusable width)")
    return grid, payloads


def run_trace_campaign(
    trace_path: Union[str, Path],
    *,
    window_seconds: int = 3600,
    window_offsets: Sequence[int] = (0,),
    utilizations: Sequence[float] = (),
    n_tasks: int = 0,
    sets_per_point: int = 50,
    seed: int = 0,
    mapping: Optional[MappingConfig] = None,
    model: Optional[OverheadModel] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    replicas: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
    config: Optional[RunnerConfig] = None,
    grid: Optional[TraceGrid] = None,
    evaluator: Optional[Callable[[Any], List[SchedulabilityPoint]]] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> List[CampaignRow]:
    """Run (or resume) a trace-replay campaign end to end.

    :func:`prepare_trace_campaign` pins the trace (resume refuses a
    modified log) and maps the windows; everything else —
    checkpointing, retry, worker pools, status files — is the stock
    campaign engine with trace payloads riding along.  With a
    ``dispatcher`` the windows are mapped here once and their payloads
    ride inside the shard-run frames, so worker nodes need no access to
    the trace file.
    """
    grid, payloads = prepare_trace_campaign(
        trace_path, grid, window_seconds=window_seconds,
        window_offsets=window_offsets, utilizations=utilizations,
        n_tasks=n_tasks, sets_per_point=sets_per_point, seed=seed,
        replicas=replicas, mapping=mapping, progress=progress)

    store = CheckpointStore(run_dir) if run_dir is not None else None
    cfg = config if config is not None else RunnerConfig(workers=workers)
    runner = CampaignRunner(grid, evaluator or evaluate_trace_shard,
                            config=cfg, store=store, model=model,
                            payloads=payloads,
                            note=f"trace-replay {grid.trace_name}",
                            dispatcher=dispatcher)
    results = runner.run(resume=resume)
    rows = assemble_trace_rows(grid, results, progress=progress)
    if store is not None:
        save_campaign(store.result_path(), rows, seed=grid.seed,
                      sets_per_point=grid.sets_per_point,
                      note=f"trace-replay {grid.trace_name} "
                           f"({len(grid.window_offsets)} window(s) x "
                           f"{len(grid.utilizations)} points, "
                           f"window={grid.window_seconds}s)")
    return rows
