"""Schedulability campaigns on the shard engine (Figs. 3–4, batch analysis).

This module is the bridge between the generic machinery (:mod:`.spec`,
:mod:`.runner`, :mod:`.checkpoint`) and the paper's Monte-Carlo sweeps:

* :func:`evaluate_shard` — the picklable worker: one seeded generator
  per shard, ``evaluate_columns`` over the column sets it draws (no
  :class:`~repro.workload.spec.TaskSpec` per generated task).  With the
  default ``replicas=1`` a shard is one grid point with the historical
  seed offset, so results are byte-identical to the pre-engine
  ``analysis.experiments`` path (the benchmarks assert this).
* :func:`assemble_rows` — the historical row aggregation
  (:func:`campaign_row`, shared with trace replay), applied to shard
  results concatenated in replica order.  Completion order never
  reaches this code, which is why an interrupted-and-resumed run
  serialises byte-for-byte like an uninterrupted one.
* :func:`run_schedulability_campaign` — the long-standing entry point,
  same signature and semantics as before plus the engine's extras:
  ``run_dir`` (checkpoint every shard, write ``result.json``),
  ``resume``, ``replicas``, a full :class:`~repro.campaign.runner.
  RunnerConfig` override, and a ``dispatcher`` that sends the shards to
  a worker fleet instead of the local pool.
* :func:`analysis_response` — the ``analyze`` answer for one task set,
  read off one :func:`~repro.analysis.schedulability.evaluate_task_set`
  point; the admission service and :func:`batch_analyze` both return it.
* :func:`batch_analyze` — many independent task sets through the same
  dispatch engine; the admission service's ``batch-analyze`` verb sits
  on this (the service imports campaign, never the reverse).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..analysis.experiments import CampaignRow
from ..analysis.persistence import save_campaign
from ..analysis.schedulability import (SchedulabilityPoint,
                                       evaluate_columns, evaluate_task_set)
from ..analysis.stats import summarize
from ..overheads.model import OverheadModel
from ..workload.generator import TaskSetGenerator
from ..workload.spec import TaskSpec
from .checkpoint import CheckpointStore
from .runner import CampaignRunner, Dispatcher, RunnerConfig, dispatch_jobs
from .spec import CampaignGrid, ShardSpec, plan_shards, shards_by_point

__all__ = ["evaluate_shard", "campaign_row", "assemble_rows",
           "run_schedulability_campaign", "analysis_response",
           "batch_analyze"]


def evaluate_shard(args: Tuple[ShardSpec, Optional[OverheadModel]]
                   ) -> List[SchedulabilityPoint]:
    """Worker for one shard — module-level so it pickles.

    Shards are embarrassingly parallel: each owns a generator seeded by
    the planner, so serial, parallel, and resumed runs produce
    byte-identical statistics.  (The per-set work is pure Python, so
    processes — not threads — are what buys wall-clock; default models
    pickle fine, custom ``sched_*`` callables must too.)
    """
    spec, model = args
    if model is None:
        model = OverheadModel()
    gen = TaskSetGenerator(spec.seed)
    # Freshly generated random sets essentially never repeat, so the
    # analysis cache would only cost a key per set (0 hits in 4,080
    # benchmark lookups); trace shards and the service keep it.
    return [evaluate_columns(gen.columns(spec.n_tasks, spec.utilization),
                             model)
            for _ in range(spec.sets)]


def campaign_row(points: Sequence[SchedulabilityPoint], n_tasks: int,
                 u: float) -> CampaignRow:
    """Summarise one grid point's pooled task-set results as a row.

    Shared by the synthetic and trace-replay assemblers, so both grids
    serialise their rows with the same statistics code.
    """
    m_pd2 = [p.m_pd2 for p in points if p.m_pd2 is not None]
    m_ff = [p.m_ff for p in points if p.m_ff is not None]
    lp = [p.loss_pfair for p in points if p.loss_pfair is not None]
    le = [p.loss_edf for p in points if p.loss_edf is not None]
    lf = [p.loss_ff for p in points if p.loss_ff is not None]
    return CampaignRow(
        n_tasks=n_tasks,
        utilization=u,
        mean_utilization=u / n_tasks,
        m_pd2=summarize(m_pd2 or [float("nan")]),
        m_ff=summarize(m_ff or [float("nan")]),
        loss_pfair=summarize(lp or [float("nan")]),
        loss_edf=summarize(le or [float("nan")]),
        loss_ff=summarize(lf or [float("nan")]),
        infeasible_pd2=sum(1 for p in points if p.m_pd2 is None),
        infeasible_ff=sum(1 for p in points if p.m_ff is None),
    )


def assemble_rows(grid: CampaignGrid,
                  results: Mapping[str, List[SchedulabilityPoint]],
                  progress: Optional[Callable[[str], None]] = None
                  ) -> List[CampaignRow]:
    """Aggregate per-shard points into the campaign's rows.

    Replicas of a point are concatenated in replica order (never
    completion order) and summarised with the same statistics code the
    serial path always used — the engine changes *where* points are
    computed, never *how* rows are formed.
    """
    by_point = shards_by_point(plan_shards(grid))
    rows: List[CampaignRow] = []
    for k, u in enumerate(grid.utilizations):
        points: List[SchedulabilityPoint] = []
        for shard in by_point[k]:
            points.extend(results[shard.shard_id])
        if progress is not None:
            progress(f"N={grid.n_tasks} U={u:.2f}: "
                     f"{len(points)} sets evaluated")
        rows.append(campaign_row(points, grid.n_tasks, u))
    return rows


def run_schedulability_campaign(
    n_tasks: int,
    utilizations: Sequence[float],
    *,
    sets_per_point: int = 50,
    seed: int = 0,
    model: Optional[OverheadModel] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    replicas: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
    config: Optional[RunnerConfig] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> List[CampaignRow]:
    """The Fig. 3/4 campaign for one task count.

    One seeded generator per shard keeps shards independently
    reproducible and embarrassingly parallel: with ``workers > 1`` they
    run in a process pool and the results are byte-identical to the
    serial run.  With a ``run_dir`` every finished shard is
    checkpointed atomically and the final rows land in
    ``<run_dir>/result.json``; ``resume=True`` restores completed shards
    instead of recomputing them (see ``docs/CAMPAIGNS.md``).  A
    ``dispatcher`` (a :class:`~repro.distrib.coordinator.Coordinator`)
    evaluates the shards on worker nodes; ``result.json`` stays
    byte-identical to the local run (``docs/DISTRIBUTED.md``).
    """
    grid = CampaignGrid(n_tasks=n_tasks, utilizations=tuple(utilizations),
                        sets_per_point=sets_per_point, seed=seed,
                        replicas=replicas)
    store = CheckpointStore(run_dir) if run_dir is not None else None
    cfg = config if config is not None else RunnerConfig(workers=workers)
    runner = CampaignRunner(grid, evaluate_shard, config=cfg, store=store,
                            model=model, dispatcher=dispatcher)
    results = runner.run(resume=resume)
    rows = assemble_rows(grid, results, progress=progress)
    if store is not None:
        save_campaign(store.result_path(), rows, seed=seed,
                      sets_per_point=sets_per_point,
                      note=f"campaign N={n_tasks} "
                           f"({len(grid.utilizations)} points)")
    return rows


def analysis_response(specs: Sequence[TaskSpec],
                      model: OverheadModel) -> Dict[str, Any]:
    """The ``analyze`` answer for ``specs``: minimum processors under PD²
    and EDF-FF, raw utilization and task count, from one
    :func:`~repro.analysis.schedulability.evaluate_task_set` point.

    Raises ``ValueError`` for a set the analysis refuses.
    """
    point = evaluate_task_set(specs, model)
    return {"m_pd2": point.m_pd2, "m_edf_ff": point.m_ff,
            "utilization": point.utilization, "n_tasks": point.n_tasks}


def _analyze_one(args: Tuple[Tuple[TaskSpec, ...], Optional[OverheadModel]]
                 ) -> Dict[str, Any]:
    """Worker for one task set of a batch analysis (module-level so it
    pickles).  Invalid sets come back as ``{"error": ...}`` data rather
    than raising: a deterministic failure would fail identically on
    every retry, so it is an answer, not a fault."""
    specs, model = args
    try:
        return analysis_response(
            specs, model if model is not None else OverheadModel())
    except ValueError as exc:
        return {"error": str(exc)}


def batch_analyze(task_sets: Sequence[Sequence[TaskSpec]], *,
                  model: Optional[OverheadModel] = None,
                  workers: int = 1,
                  config: Optional[RunnerConfig] = None
                  ) -> List[Dict[str, Any]]:
    """Analyse many independent task sets, in input order.

    Each result dict mirrors one ``analyze`` verb response (``m_pd2``,
    ``m_edf_ff``, ``utilization``, ``n_tasks``) or carries ``"error"``
    for an invalid set.  Dispatch runs through the same engine as
    campaigns — a process pool per call, worker-death recovery — with
    ``max_retries=0`` by default because the analysis is deterministic
    (a worker death is still recovered; it is unbudgeted).
    """
    if not task_sets:
        return []
    cfg = config if config is not None else RunnerConfig(workers=workers,
                                                         max_retries=0)
    jobs = {f"{i:06d}": (tuple(task_sets[i]), model)
            for i in range(len(task_sets))}
    results: Dict[str, Dict[str, Any]] = {}

    def on_success(key: str, result: Dict[str, Any],
                   attempts: int, elapsed: float) -> None:
        results[key] = result

    failed = dispatch_jobs(jobs, _analyze_one, cfg, on_success=on_success)
    for key in failed:
        # Non-deterministic failure (e.g. repeated worker death): report
        # it per-set the same way invalid input is reported.
        results[key] = {"error": "analysis failed after retries: "
                                 f"{failed.causes[key]}"}
    return [results[key] for key in sorted(jobs)]
