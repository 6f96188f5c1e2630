"""Task-set file I/O: a small JSON format for sharing workloads.

A task set is a JSON object with a header and a task list::

    {
      "ticks_per_ms": 1000,
      "quantum": 1000,
      "tasks": [
        {"name": "audio", "execution": 250, "period": 10000,
         "cache_delay": 30, "deadline": null},
        ...
      ]
    }

All times are integer ticks.  ``quantum`` and ``ticks_per_ms`` are
advisory metadata (preserved on round trips; the loader does not scale
anything).  The CLI's ``schedule --file`` / ``compare --file`` options
consume this format, and campaign scripts can persist generated sets for
exact cross-tool comparisons.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from .spec import TaskSpec

__all__ = ["task_set_to_dict", "task_set_from_dict", "save_task_set",
           "load_task_set"]


def task_set_to_dict(specs: Sequence[TaskSpec], *, quantum: int = 1000,
                     ticks_per_ms: int = 1000) -> Dict[str, Any]:
    """Serialise specs to the documented JSON structure."""
    return {
        "ticks_per_ms": ticks_per_ms,
        "quantum": quantum,
        "tasks": [
            {
                "name": s.name,
                "execution": s.execution,
                "period": s.period,
                "cache_delay": s.cache_delay,
                "deadline": s.deadline,
            }
            for s in specs
        ],
    }


def task_set_from_dict(data: Dict[str, Any]) -> List[TaskSpec]:
    """Parse the documented JSON structure back into specs.

    Raises ``ValueError`` with a pointed message on malformed input —
    these files are hand-editable, so diagnostics matter.
    """
    if not isinstance(data, dict) or "tasks" not in data:
        raise ValueError("task-set file must be an object with a 'tasks' list")
    tasks = data["tasks"]
    if not isinstance(tasks, list):
        raise ValueError("'tasks' must be a list")
    specs: List[TaskSpec] = []
    for k, entry in enumerate(tasks):
        if not isinstance(entry, dict):
            raise ValueError(f"task #{k} is not an object")
        try:
            execution = int(entry["execution"])
            period = int(entry["period"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"task #{k}: 'execution' and 'period' must be integers"
            ) from exc
        deadline = entry.get("deadline")
        try:
            specs.append(TaskSpec(
                execution=execution,
                period=period,
                name=str(entry.get("name", f"T{k}")),
                cache_delay=int(entry.get("cache_delay", 0)),
                deadline=None if deadline is None else int(deadline),
            ))
        except ValueError as exc:
            raise ValueError(f"task #{k}: {exc}") from exc
    return specs


def save_task_set(path: Union[str, Path], specs: Sequence[TaskSpec], *,
                  quantum: int = 1000, ticks_per_ms: int = 1000) -> None:
    """Write specs to ``path`` as pretty-printed JSON."""
    payload = task_set_to_dict(specs, quantum=quantum,
                               ticks_per_ms=ticks_per_ms)
    Path(path).write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")


def load_task_set(path: Union[str, Path]) -> List[TaskSpec]:
    """Read a task-set JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return task_set_from_dict(data)
