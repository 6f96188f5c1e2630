"""Trace and result export: CSV and JSON for external analysis tools.

Schedule traces, per-task statistics, and miss lists serialise to plain
dict/list structures (JSON-ready) or CSV text, so runs can be inspected in
a spreadsheet or fed to a plotting pipeline without importing this
library.  Only data that is meaningful outside the process is exported —
task references become names, weights become ``"e/p"`` strings.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List

from .quantum import SimResult
from ..core.trace import ScheduleTrace

__all__ = [
    "trace_to_rows",
    "trace_to_csv",
    "result_to_dict",
    "result_to_json",
]


def trace_to_rows(trace: ScheduleTrace) -> List[Dict[str, Any]]:
    """Flatten a trace to ``{slot, processor, task, subtask}`` dicts in
    slot order."""
    return [
        {"slot": a.slot, "processor": a.processor, "task": a.task.name,
         "subtask": a.subtask_index}
        for a in trace.allocations()
    ]


def trace_to_csv(trace: ScheduleTrace) -> str:
    """CSV text with a header row (``slot,processor,task,subtask``)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["slot", "processor", "task",
                                             "subtask"])
    writer.writeheader()
    for row in trace_to_rows(trace):
        writer.writerow(row)
    return buf.getvalue()


def result_to_dict(result: SimResult) -> Dict[str, Any]:
    """A JSON-ready summary of a simulation run.

    Includes the experiment frame (horizon, processors, policy), per-task
    counters, and the full miss list; the trace itself is included as rows
    only when the run recorded one.
    """
    tasks = []
    for task in result.tasks:
        stats = result.stats.per_task.get(task.task_id)
        tasks.append({
            "name": task.name,
            "weight": str(task.weight),
            "execution": task.execution,
            "period": task.period,
            "quanta": stats.quanta if stats else 0,
            "preemptions": stats.preemptions if stats else 0,
            "migrations": stats.migrations if stats else 0,
        })
    misses = [
        {"task": m.task.name, "subtask": m.subtask_index,
         "deadline": m.deadline, "completed_at": m.completed_at}
        for m in result.stats.misses
    ]
    out: Dict[str, Any] = {
        "horizon": result.horizon,
        "processors": result.processors,
        "policy": result.policy_name,
        "busy_quanta": result.stats.busy_quanta,
        "idle_quanta": result.stats.idle_quanta,
        "tasks": tasks,
        "misses": misses,
    }
    if result.trace is not None:
        out["trace"] = trace_to_rows(result.trace)
    return out


def result_to_json(result: SimResult, **dumps_kwargs: object) -> str:
    """JSON text of :func:`result_to_dict`."""
    return json.dumps(result_to_dict(result), **dumps_kwargs)
