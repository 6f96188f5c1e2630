"""Analysis: sample statistics with 99% CIs, overhead-aware schedulability
evaluation (Figs. 3–4), campaign persistence, and ASCII reporting.

Campaign *execution* (the sweep driver, crossover scan, and worker pool)
lives one layer up in :mod:`repro.campaign`; this package provides what
those sweeps evaluate and how their results are summarised and stored.
"""

from .experiments import CampaignRow, utilization_grid
from .persistence import load_campaign, merge_campaigns, save_campaign
from .report import format_series_plot, format_table, print_table
from .schedulability import (
    SchedulabilityPoint,
    evaluate_columns,
    evaluate_task_set,
)
from .stats import SampleStats, confidence_halfwidth, summarize
from .tardiness import TardinessProfile, epdf_tardiness_experiment, tardiness_profile

__all__ = [
    "save_campaign",
    "load_campaign",
    "merge_campaigns",
    "CampaignRow",
    "utilization_grid",
    "format_table",
    "format_series_plot",
    "print_table",
    "SchedulabilityPoint",
    "evaluate_columns",
    "evaluate_task_set",
    "SampleStats",
    "summarize",
    "confidence_halfwidth",
    "TardinessProfile",
    "tardiness_profile",
    "epdf_tardiness_experiment",
]
