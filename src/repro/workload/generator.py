"""Random task-set generation for the paper's simulation campaigns.

The experiments of Figs. 2–4 each draw many random task sets with a given
task count ``N`` and total utilization ``U``.  A set is drawn as integer
columns ``(e, p, D)`` (:meth:`TaskSetGenerator.columns`, ticks = µs),
which is what the campaign path hands to the analyses; at the API,
:meth:`TaskSetGenerator.generate` returns the same set as
:class:`~repro.workload.spec.TaskSpec` lists, and this module converts
specs into the runtime task types.  Everything is seeded through
:class:`numpy.random.Generator` — a campaign is reproducible from
``(seed, N, U, point index)``.

Cache-related preemption delays ``D(T)`` are drawn per task, uniform on
``[0, 100] µs`` with mean 33.3 µs by default, exactly as the paper chose
by extrapolating from the timing-analysis literature (Sec. 4).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.task import PeriodicTask
from ..core.uniproc import UniTask
from .distributions import UTILIZATION_SAMPLERS, period_array
from .spec import TaskColumns, TaskSpec

__all__ = [
    "TaskSetGenerator",
    "generate_task_set",
    "specs_to_pfair_tasks",
    "specs_to_uni_tasks",
]


_TASK_NAMES: List[str] = []


def _task_names(n: int) -> List[str]:
    """The shared ``["T0", "T1", ...]`` prefix, grown on demand — one
    format per distinct index ever needed instead of one per generated
    task."""
    while len(_TASK_NAMES) < n:
        _TASK_NAMES.append(f"T{len(_TASK_NAMES)}")
    return _TASK_NAMES[:n]


class TaskSetGenerator:
    """Seeded generator of random periodic task sets.

    Parameters
    ----------
    seed:
        Root seed; every :meth:`generate` call advances the stream, so one
        generator instance yields a reproducible sequence of sets.
    quantum:
        Tick multiple all periods align to (default 1 ms in µs ticks).
    min_period, max_period:
        Log-uniform period range in ticks.
    utilization_sampler:
        Name in :data:`~repro.workload.distributions.UTILIZATION_SAMPLERS`
        or a callable ``(rng, n, total) -> list[float]``.
    cache_delay_max:
        ``D(T)`` is drawn uniform on ``[0, cache_delay_max]`` ticks (the
        paper's 0–100 µs, mean 33.3 µs).
    """

    def __init__(self, seed: int = 0, *, quantum: int = 1000,
                 min_period: int = 50_000, max_period: int = 5_000_000,
                 utilization_sampler: "str | Callable[..., List[float]]" = "simplex",
                 cache_delay_max: int = 100) -> None:
        self.rng = np.random.default_rng(seed)
        self.quantum = quantum
        self.min_period = min_period
        self.max_period = max_period
        if isinstance(utilization_sampler, str):
            try:
                utilization_sampler = UTILIZATION_SAMPLERS[utilization_sampler]
            except KeyError:
                raise ValueError(
                    f"unknown sampler {utilization_sampler!r}; options: "
                    f"{sorted(UTILIZATION_SAMPLERS)}"
                ) from None
        self.utilization_sampler: Callable = utilization_sampler
        self.cache_delay_max = cache_delay_max

    def columns(self, n: int, total_utilization: float) -> TaskColumns:
        """One random set of ``n`` tasks with the given total utilization,
        as columns named ``T0``, ``T1``, ...

        Execution costs are rounded to whole ticks (>= 1), so the realised
        total utilization deviates from the target by at most ~1 tick per
        period — negligible at µs resolution.  Every set satisfies
        ``1 <= e <= p``, ``p`` a quantum multiple in ``[q, top]`` (``top``
        the largest multiple at most ``max_period``) and
        ``0 <= D <= cache_delay_max``; a set that does not raises.
        """
        if n < 1:
            raise ValueError("need at least one task")
        us = self.utilization_sampler(self.rng, n, total_utilization)
        q = self.quantum
        p = period_array(self.rng, n, quantum=q, min_period=self.min_period,
                         max_period=self.max_period)
        d = self.rng.integers(0, self.cache_delay_max + 1, size=n)
        # e = max(1, min(p, round(u*p))): np.rint is the same
        # round-half-to-even as Python's round on float64.
        e = np.clip(np.rint(np.asarray(us) * p).astype(np.int64), 1, p)
        ok = ((1 <= e) & (e <= p) & (p % q == 0) & (q <= p)
              & (p <= (self.max_period // q) * q)
              & (0 <= d) & (d <= self.cache_delay_max))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"generated task T{i} out of range: e={e[i]}, "
                             f"p={p[i]}, D={d[i]}")
        return TaskColumns(e.tolist(), p.tolist(), d.tolist(), _task_names(n))

    def generate(self, n: int, total_utilization: float) -> List[TaskSpec]:
        """:meth:`columns` as a :class:`TaskSpec` list (same draws, same
        set)."""
        return self.columns(n, total_utilization).specs()


def generate_task_set(n: int, total_utilization: float, *, seed: int = 0,
                      **kwargs: object) -> List[TaskSpec]:
    """Convenience one-shot wrapper around :class:`TaskSetGenerator`."""
    return TaskSetGenerator(seed, **kwargs).generate(n, total_utilization)


def specs_to_pfair_tasks(specs: Sequence[TaskSpec], *,
                         quantum: Optional[int] = None) -> List[PeriodicTask]:
    """Instantiate specs as synchronous periodic Pfair tasks.

    With ``quantum`` given, execution costs are rounded up to whole quanta
    and periods divided by it (the Pfair quantisation of Sec. 4); without,
    the specs' tick values are used directly as (e, p) — appropriate when
    the specs are already in quanta.
    """
    tasks: List[PeriodicTask] = []
    for s in specs:
        if quantum is None:
            e, p = s.execution, s.period
        else:
            e, p = s.scaled_quanta(quantum)
            if e > p:
                raise ValueError(
                    f"{s.name}: quantised execution {e} exceeds period {p}"
                )
        tasks.append(PeriodicTask(e, p, name=s.name or None))
    return tasks


def specs_to_uni_tasks(specs: Sequence[TaskSpec]) -> List[UniTask]:
    """Instantiate specs as job-level uniprocessor tasks (EDF/RM side)."""
    return [UniTask(s.execution, s.period, name=s.name or None) for s in specs]
