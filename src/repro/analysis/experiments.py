"""Campaign vocabulary: the utilization grid and the aggregated row.

The paper's Figs. 3–4 are Monte-Carlo sweeps: for each task count ``N``
and each target total utilization (from ``N/30`` to ``N/3``), generate
many random sets, evaluate each, and plot means with 99% CIs.  The
*execution* of those sweeps — sharding, dispatch, retry, checkpointing —
lives in :mod:`repro.campaign` (see ``docs/CAMPAIGNS.md``); this module
keeps the pieces the rest of the analysis layer shares with it: the
utilization grid and :class:`CampaignRow`, the aggregate that
persistence and the figure formatters consume.
(``run_schedulability_campaign`` itself moved to
:func:`repro.campaign.sched.run_schedulability_campaign`; the campaign
layer sits above analysis in the import DAG, so the driver could not
stay here once it grew checkpointing and a worker-pool policy.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .stats import SampleStats

__all__ = [
    "utilization_grid",
    "CampaignRow",
]


def utilization_grid(n_tasks: int, points: int = 20) -> List[float]:
    """The paper's Fig. 3 x-axis: total utilizations from N/30 to N/3."""
    lo, hi = n_tasks / 30, n_tasks / 3
    if points < 2:
        return [hi]
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


@dataclass
class CampaignRow:
    """Aggregated results for one (N, U) grid point."""

    n_tasks: int
    utilization: float
    mean_utilization: float       # mean task utilization U/N (Fig. 4 x-axis)
    m_pd2: SampleStats
    m_ff: SampleStats
    loss_pfair: SampleStats
    loss_edf: SampleStats
    loss_ff: SampleStats
    infeasible_pd2: int
    infeasible_ff: int
