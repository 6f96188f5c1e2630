"""Fault-tolerant, checkpointable, observable campaign execution.

The engine behind every Monte-Carlo sweep in the repo.  A campaign grid
is planned into deterministic, independently-seeded shards
(:mod:`.spec`); a runner dispatches them over a process pool it owns
for the call, with per-shard timeout, bounded retry, and worker-death
recovery (:mod:`.runner`); each finished shard spools atomically
into a run directory so an interrupted run resumes byte-for-byte
(:mod:`.checkpoint`); and a progress surface feeds ``repro campaign
run|resume|status`` (:mod:`.progress`).  :mod:`.sched` binds the engine
to the paper's schedulability sweeps, :mod:`.crossover` reads the
Fig. 3 crossover off a campaign's rows.

Layering (staticcheck R003): campaign sits above analysis and below
service — the service's batch-analyze path calls into this package,
never the reverse.  Run-directory layout, retry semantics, and the
resume guarantee are documented in ``docs/CAMPAIGNS.md``.
"""

from .checkpoint import CheckpointStore, RunDirError
from .crossover import CrossoverResult, find_crossover
from .progress import ProgressTracker
from .runner import (CampaignIncomplete, CampaignRunner, RunnerConfig,
                     dispatch_jobs)
from .sched import (assemble_rows, batch_analyze, evaluate_shard,
                    run_schedulability_campaign)
from .spec import CampaignGrid, ShardSpec, plan_shards

__all__ = [
    "CampaignGrid",
    "ShardSpec",
    "plan_shards",
    "CheckpointStore",
    "RunDirError",
    "ProgressTracker",
    "RunnerConfig",
    "CampaignRunner",
    "CampaignIncomplete",
    "dispatch_jobs",
    "evaluate_shard",
    "assemble_rows",
    "run_schedulability_campaign",
    "batch_analyze",
    "CrossoverResult",
    "find_crossover",
]
