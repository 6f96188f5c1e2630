"""Campaign grids and their deterministic decomposition into shards.

A *campaign* is the paper's Monte-Carlo sweep: for one task count, a
grid of target total utilizations, each evaluated over many random task
sets.  The planner here splits that grid into :class:`ShardSpec` records
— the engine's unit of dispatch, retry, and checkpointing — such that

* every shard is **independently seeded**: its generator seed is a pure
  function of ``(campaign seed, point index, replica index)``, so a
  shard's result does not depend on which worker ran it, when, or what
  ran before it;
* the plan is **pure**: :func:`plan_shards` reads no clock, RNG, or
  environment (staticcheck R002 covers this package), so planning the
  same :class:`CampaignGrid` twice — e.g. on resume — yields the same
  shards with the same ids, which is what lets a resumed run skip
  completed shards byte-for-byte;
* with ``replicas == 1`` (the default) a shard is exactly one grid
  point with the historical seed offset ``seed + 7919 * point_index``,
  so engine campaigns reproduce the pre-engine serial runs bit for bit.

``replicas > 1`` splits each grid point's task sets over several shards
with distinct sub-seeds (offset by ``104729 * replica_index`` — the
10000th prime, coprime to the point stride).  Replicated shards are
pooled by :func:`repro.analysis.persistence.merge_campaigns` in replica
order, giving finer-grained checkpoints and more parallelism at
paper-scale set counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Protocol, Sequence, Tuple

__all__ = ["CampaignGrid", "GridLike", "ShardSpec", "point_shards",
           "plan_shards", "shards_by_point", "POINT_SEED_STRIDE",
           "REPLICA_SEED_STRIDE"]

#: Seed offset between grid points (the 1000th prime) — unchanged from
#: the original ``run_schedulability_campaign`` so engine results stay
#: byte-identical to historical runs.
POINT_SEED_STRIDE = 7919

#: Seed offset between replicas of one point (the 10000th prime).
REPLICA_SEED_STRIDE = 104729


class GridLike(Protocol):
    """What the runner and checkpoint store need from a campaign grid.

    Any pure-data description that can (a) decompose itself into the
    full ordered :class:`ShardSpec` list and (b) serialise itself for
    the manifest qualifies — :class:`CampaignGrid` for synthetic
    sweeps, :class:`repro.traces.replay.TraceGrid` for trace replay.
    ``plan()`` must be deterministic (no I/O, clock, or RNG), because
    resume replans and diffs against the checkpoint directory.
    """

    def plan(self) -> List["ShardSpec"]: ...

    def to_dict(self) -> Dict[str, Any]: ...


@dataclass(frozen=True)
class CampaignGrid:
    """The full description of one schedulability campaign.

    ``utilizations`` is the Fig. 3 x-axis (total utilization per grid
    point); ``sets_per_point`` the Monte-Carlo sample size; ``replicas``
    how many shards each point is split into.  The grid is pure data —
    hashable, serialisable, and sufficient to replan the identical shard
    set on resume.
    """

    n_tasks: int
    utilizations: Tuple[float, ...]
    sets_per_point: int = 50
    seed: int = 0
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be positive, got {self.n_tasks}")
        if not self.utilizations:
            raise ValueError("a campaign needs at least one grid point")
        if self.sets_per_point < 1:
            raise ValueError("sets_per_point must be positive, got "
                             f"{self.sets_per_point}")
        if not 1 <= self.replicas <= self.sets_per_point:
            raise ValueError(
                f"replicas must be in [1, sets_per_point], got "
                f"{self.replicas} (sets_per_point={self.sets_per_point})")
        object.__setattr__(self, "utilizations",
                           tuple(float(u) for u in self.utilizations))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, stored verbatim in a run's manifest."""
        return {
            "n_tasks": self.n_tasks,
            "utilizations": list(self.utilizations),
            "sets_per_point": self.sets_per_point,
            "seed": self.seed,
            "replicas": self.replicas,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignGrid":
        """Rebuild a grid from its manifest form."""
        return cls(n_tasks=data["n_tasks"],
                   utilizations=tuple(data["utilizations"]),
                   sets_per_point=data["sets_per_point"],
                   seed=data["seed"],
                   replicas=data.get("replicas", 1))

    def plan(self) -> "List[ShardSpec]":
        """The grid's full ordered shard list (:func:`plan_shards`) —
        the :class:`GridLike` entry point the runner calls."""
        return plan_shards(self)


@dataclass(frozen=True)
class ShardSpec:
    """One independently runnable, independently seeded unit of work.

    A shard evaluates ``sets`` random task sets at one ``(n_tasks,
    utilization)`` grid point, drawn from a generator seeded with
    ``seed``.  ``shard_id`` names its checkpoint file; ids sort in grid
    order (zero-padded point index, then replica index).
    """

    shard_id: str
    point_index: int
    replica_index: int
    n_tasks: int
    utilization: float
    sets: int
    seed: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, embedded in the shard's checkpoint file."""
        return {
            "shard_id": self.shard_id,
            "point_index": self.point_index,
            "replica_index": self.replica_index,
            "n_tasks": self.n_tasks,
            "utilization": self.utilization,
            "sets": self.sets,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        """Rebuild a shard from its checkpoint form."""
        return cls(shard_id=data["shard_id"],
                   point_index=data["point_index"],
                   replica_index=data["replica_index"],
                   n_tasks=data["n_tasks"],
                   utilization=data["utilization"],
                   sets=data["sets"],
                   seed=data["seed"])


def _replica_sets(sets_per_point: int, replicas: int) -> List[int]:
    """Split a point's sample size over replicas (earlier replicas take
    the remainder, so totals are exact and the split is deterministic)."""
    base, extra = divmod(sets_per_point, replicas)
    return [base + (1 if r < extra else 0) for r in range(replicas)]


def point_shards(k: int, utilization: float, *, n_tasks: int,
                 sets_per_point: int, replicas: int,
                 seed: int) -> List[ShardSpec]:
    """The replica shards of grid point ``k``, in replica order.

    The one place the seed strides and the ``p####r###`` id scheme live:
    the synthetic planner and :meth:`repro.traces.replay.TraceGrid.plan`
    both build their shards here.
    """
    point_seed = seed + POINT_SEED_STRIDE * k
    return [ShardSpec(shard_id=f"p{k:04d}r{r:03d}",
                      point_index=k,
                      replica_index=r,
                      n_tasks=n_tasks,
                      utilization=utilization,
                      sets=sets,
                      seed=point_seed + REPLICA_SEED_STRIDE * r)
            for r, sets in enumerate(_replica_sets(sets_per_point,
                                                   replicas))]


def plan_shards(grid: CampaignGrid) -> List[ShardSpec]:
    """Decompose ``grid`` into its full, ordered shard list.

    Pure and total: no I/O, no clock, no randomness.  The same grid
    always plans the same shards — the resume path replans and diffs
    against the checkpoint directory instead of persisting the plan.
    """
    return [shard
            for k, u in enumerate(grid.utilizations)
            for shard in point_shards(k, u, n_tasks=grid.n_tasks,
                                      sets_per_point=grid.sets_per_point,
                                      replicas=grid.replicas,
                                      seed=grid.seed)]


def shards_by_point(shards: Sequence[ShardSpec]
                    ) -> Dict[int, List[ShardSpec]]:
    """Group shards by grid point, replicas in order — the merge order
    the assembler uses, independent of completion order."""
    by_point: Dict[int, List[ShardSpec]] = {}
    for shard in shards:
        by_point.setdefault(shard.point_index, []).append(shard)
    for group in by_point.values():
        group.sort(key=lambda s: s.replica_index)
    return by_point
