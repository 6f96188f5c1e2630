"""Deterministic SWF job → :class:`TaskSpec` conversion and windowing.

A trace job is three numbers that matter to a fair scheduler: when it
arrived (``submit_time``), how long it ran (``run_time``), and how wide
it was (``req_procs`` on an ``M``-processor machine).  The policies
here turn those into sporadic task parameters with **exact rational
weights** — a job that asked for ``req`` of ``M`` processors becomes a
task of weight ``Fraction(req, M)``, never a rounded float, so the
downstream inflation and Eq. (2) feasibility arithmetic stays exact
(staticcheck R001's contract).

Two period policies, selected by :class:`MappingConfig`:

* ``"runtime"`` (default) — the period encodes the job's *runtime
  scale*: ``period = clamp(run_time · ticks_per_second)``, aligned up
  to the quantum and clamped to the generator's period range, then
  ``execution = round(weight · period)``.  Long jobs become
  long-period tasks, so the heavy-tailed runtime distributions of real
  logs survive into the task set (the shape axis the synthetic
  samplers never produce).
* ``"interarrival"`` — the period encodes the *arrival process*
  instead: the gap to the next submission in the window (bursty
  arrivals → clusters of short-period tasks), falling back to the
  runtime policy for the window's last job.

Clamping into ``[min_period, max_period]`` is not cosmetic: the
defaults equal :class:`~repro.workload.generator.TaskSetGenerator`'s
range, which is what staticcheck R010 proves fits the vector kernel's
narrow-key budget — trace-derived tasks must not widen it.

Everything is pure integer/:class:`~fractions.Fraction` arithmetic —
no clock, no RNG, no environment (R002 scope) — so mapping the same
window twice yields identical specs, which is what lets trace-replay
shards resume byte-identically.  The per-task cache-affinity delay
``D(T)`` is derived deterministically from the job id
(``job_id % (cache_delay_max + 1)``), spanning the paper's 0–100 µs
range without consuming randomness.

Degenerate jobs are **rejected, not propagated**: zero/negative
runtime, a fully anonymized processor request, or a request wider than
the machine would put a weight of 0 or > 1 into ``pd2_inflate_set``
and poison every feasibility answer downstream.  :func:`map_job`
raises :class:`TraceMappingError` naming the job and the reason;
:func:`map_jobs` can instead skip-and-report (``on_invalid="skip"``)
for real logs, where failed and cancelled jobs are routine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..workload.spec import TaskSpec
from .swf import SWFJob, SWFLog

__all__ = ["MAPPING_POLICIES", "MappingConfig", "TraceMappingError",
           "machine_size", "job_weight", "map_job", "map_jobs",
           "window_jobs", "segment_log", "scale_to_utilization"]

#: Period policies :func:`map_job` understands (see the module
#: docstring for semantics).
MAPPING_POLICIES = ("runtime", "interarrival")


class TraceMappingError(ValueError):
    """A job cannot form a sane sporadic task (degenerate runtime,
    anonymized width, or weight > 1).  The message always names the
    job id and the offending fields."""


@dataclass(frozen=True)
class MappingConfig:
    """The deterministic knobs of one job→task conversion.

    ``ticks_per_second`` sets the time compression: 1000 maps one
    trace second to one 1000-tick (= 1 ms-quantum) period unit, so an
    hour-long job lands near the generator's 5 s period ceiling.
    ``max_procs`` overrides the log's machine size (``None`` = use the
    ``MaxProcs`` header, falling back to the widest observed request).
    """

    policy: str = "runtime"
    quantum: int = 1000
    min_period: int = 50_000
    max_period: int = 5_000_000
    ticks_per_second: int = 1000
    cache_delay_max: int = 100
    max_procs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in MAPPING_POLICIES:
            raise ValueError(f"unknown mapping policy {self.policy!r}; "
                             f"options: {list(MAPPING_POLICIES)}")
        if self.quantum < 1:
            raise ValueError("quantum must be positive")
        if not 0 < self.min_period <= self.max_period:
            raise ValueError("need 0 < min_period <= max_period")
        if self.min_period % self.quantum or self.max_period % self.quantum:
            raise ValueError("min_period and max_period must be quantum "
                             "multiples (Pfair quantisation)")
        if self.ticks_per_second < 1:
            raise ValueError("ticks_per_second must be positive")
        if self.cache_delay_max < 0:
            raise ValueError("cache_delay_max must be nonnegative")
        if self.max_procs is not None and self.max_procs < 1:
            raise ValueError("max_procs must be positive when set")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, embedded in a trace campaign's manifest."""
        return {
            "policy": self.policy,
            "quantum": self.quantum,
            "min_period": self.min_period,
            "max_period": self.max_period,
            "ticks_per_second": self.ticks_per_second,
            "cache_delay_max": self.cache_delay_max,
            "max_procs": self.max_procs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MappingConfig":
        """Rebuild a config from its manifest form."""
        return cls(policy=data["policy"], quantum=data["quantum"],
                   min_period=data["min_period"],
                   max_period=data["max_period"],
                   ticks_per_second=data["ticks_per_second"],
                   cache_delay_max=data.get("cache_delay_max", 100),
                   max_procs=data.get("max_procs"))


def machine_size(log: SWFLog, config: Optional[MappingConfig] = None
                 ) -> int:
    """The processor count weights are taken against: the config
    override, else the log's ``MaxProcs`` header, else the widest
    processor figure any job shows (request or allocation)."""
    if config is not None and config.max_procs is not None:
        return config.max_procs
    if log.max_procs is not None:
        return log.max_procs
    widest = max((max(j.req_procs, j.used_procs) for j in log.jobs),
                 default=0)
    if widest < 1:
        raise TraceMappingError(
            "cannot infer the machine size: no MaxProcs header and no "
            "job carries a positive processor figure — set "
            "MappingConfig.max_procs explicitly")
    return widest


def job_weight(job: SWFJob, max_procs: int) -> Fraction:
    """The job's exact share of the machine: ``req_procs / max_procs``
    (falling back to the allocation when the request is anonymized).

    Raises :class:`TraceMappingError` on degenerate widths — a weight
    of 0 or > 1 must never reach ``pd2_inflate_set``.
    """
    if max_procs < 1:
        raise TraceMappingError(f"machine size must be positive, got "
                                f"{max_procs}")
    procs = job.req_procs if job.req_procs > 0 else job.used_procs
    if procs < 1:
        raise TraceMappingError(
            f"job {job.job_id}: no usable processor count "
            f"(req_procs={job.req_procs}, used_procs={job.used_procs} "
            f"are both anonymized/zero) — cannot form a task weight")
    if procs > max_procs:
        raise TraceMappingError(
            f"job {job.job_id}: requests {procs} processors on a "
            f"{max_procs}-processor machine — weight "
            f"{procs}/{max_procs} > 1 would poison pd2_inflate_set; "
            f"fix MaxProcs or drop the job")
    return Fraction(procs, max_procs)


def _clamp_period(raw_ticks: int, config: MappingConfig) -> int:
    """Clamp into the safe period range, aligned **up** to the quantum
    (rounding down could fall below ``min_period``)."""
    q = config.quantum
    aligned = ((max(raw_ticks, 1) + q - 1) // q) * q
    return min(max(aligned, config.min_period), config.max_period)


def map_job(job: SWFJob, config: MappingConfig, max_procs: int, *,
            next_submit: Optional[int] = None) -> TaskSpec:
    """One job as a sporadic :class:`TaskSpec` under ``config``.

    ``next_submit`` feeds the ``"interarrival"`` policy (the following
    job's submit time within the window); the runtime policy ignores
    it.  Raises :class:`TraceMappingError` on jobs that cannot form a
    sane task — zero/negative runtime, anonymized width, weight > 1.
    """
    if job.run_time <= 0:
        raise TraceMappingError(
            f"job {job.job_id}: zero/negative run_time "
            f"({job.run_time} s, status={job.status}) cannot form an "
            f"execution cost — failed/cancelled records must be "
            f"filtered before mapping")
    weight = job_weight(job, max_procs)
    if config.policy == "interarrival" and next_submit is not None \
            and next_submit > job.submit_time:
        raw = (next_submit - job.submit_time) * config.ticks_per_second
    else:
        raw = job.run_time * config.ticks_per_second
    period = _clamp_period(raw, config)
    execution = min(period, max(1, round(weight * period)))
    return TaskSpec(
        execution=execution,
        period=period,
        name=f"J{job.job_id}",
        cache_delay=job.job_id % (config.cache_delay_max + 1),
    )


def map_jobs(jobs: Sequence[SWFJob], config: MappingConfig, *,
             max_procs: int, on_invalid: str = "raise"
             ) -> Tuple[List[TaskSpec], List[Tuple[int, str]]]:
    """Map a window's jobs in deterministic (submit, job_id) order.

    Returns ``(specs, rejected)`` where ``rejected`` lists ``(job_id,
    reason)`` for every degenerate record.  ``on_invalid="raise"`` (the
    default) turns the first rejection into the error itself;
    ``"skip"`` drops degenerate jobs and reports them — the trace-replay
    driver's mode, since real logs routinely contain failed jobs with
    ``run_time`` 0.
    """
    if on_invalid not in ("raise", "skip"):
        raise ValueError(f"on_invalid must be 'raise' or 'skip', got "
                         f"{on_invalid!r}")
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    specs: List[TaskSpec] = []
    rejected: List[Tuple[int, str]] = []
    for i, job in enumerate(ordered):
        nxt = ordered[i + 1].submit_time if i + 1 < len(ordered) else None
        try:
            specs.append(map_job(job, config, max_procs,
                                 next_submit=nxt))
        except TraceMappingError as exc:
            if on_invalid == "raise":
                raise
            rejected.append((job.job_id, str(exc)))
    return specs, rejected


def window_jobs(log: SWFLog, offset_seconds: int,
                width_seconds: int) -> List[SWFJob]:
    """The jobs submitted in ``[offset, offset + width)`` seconds after
    the log's first submission, in (submit, job_id) order."""
    if width_seconds < 1:
        raise ValueError("window width must be positive")
    if offset_seconds < 0:
        raise ValueError("window offset must be nonnegative")
    if not log.jobs:
        return []
    t0 = min(j.submit_time for j in log.jobs)
    lo = t0 + offset_seconds
    hi = lo + width_seconds
    return sorted((j for j in log.jobs if lo <= j.submit_time < hi),
                  key=lambda j: (j.submit_time, j.job_id))


def segment_log(log: SWFLog, width_seconds: int
                ) -> List[Tuple[int, List[SWFJob]]]:
    """Cut the whole log into consecutive ``width_seconds`` windows —
    ``[(offset, jobs), ...]`` for every window that contains at least
    one job.  A long archive log becomes a family of task-set sources
    this way; the campaign planner seeds each window independently."""
    if width_seconds < 1:
        raise ValueError("window width must be positive")
    if not log.jobs:
        return []
    span = log.span_seconds()
    out: List[Tuple[int, List[SWFJob]]] = []
    for offset in range(0, span + 1, width_seconds):
        jobs = window_jobs(log, offset, width_seconds)
        if jobs:
            out.append((offset, jobs))
    return out


def scale_to_utilization(specs: Sequence[TaskSpec],
                         target: Union[float, Fraction]) -> List[TaskSpec]:
    """Rescale execution costs so the set's total utilization hits
    ``target`` (exactly in rational arithmetic, then rounded to whole
    ticks and clamped to ``1 <= e <= p`` like the synthetic generator).

    Periods — the trace's shape — are untouched; only the per-task
    demand is scaled, which is what lets one window sweep the same
    utilization axis as a synthetic campaign.  Deterministic: the same
    specs and target always produce the same set.
    """
    if not specs:
        raise ValueError("cannot scale an empty task set")
    goal = Fraction(target)
    if goal <= 0:
        raise ValueError(f"target utilization must be positive, got "
                         f"{target}")
    total = sum(Fraction(s.execution, s.period) for s in specs)
    factor = goal / total
    return [replace(s, execution=min(s.period,
                                     max(1, round(s.execution * factor))))
            for s in specs]
