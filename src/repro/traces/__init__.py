"""Real workload traces: SWF ingestion, job→task mapping, replay.

The package that connects the repo's synthetic Monte-Carlo machinery to
the Parallel Workloads Archive's reality (ROADMAP item 2):

* :mod:`.swf` — strict, stdlib-only Standard Workload Format parser
  (typed :class:`~repro.traces.swf.SWFJob`/:class:`~repro.traces.swf.
  SWFLog`, canonical serializer, round-trip identity);
* :mod:`.mapping` — deterministic, exact-rational job→:class:`~repro.
  workload.spec.TaskSpec` conversion policies and trace windowing;
* :mod:`.replay` — trace-replay campaigns on the stock checkpointed,
  distributable shard engine (:class:`~repro.traces.replay.TraceGrid`);
* :mod:`.fetch` — checksum-verified retrieval of public archive logs
  (the one module here that touches the network; CI never does).

See ``docs/TRACES.md`` for the format, the mapping policies, and a
worked example.
"""

from .mapping import (MAPPING_POLICIES, MappingConfig, TraceMappingError,
                      machine_size, map_job, map_jobs, scale_executions,
                      scale_to_utilization, segment_log, window_jobs)
from .replay import (TraceGrid, TraceWindowPayload, assemble_trace_rows,
                     build_window_payloads, evaluate_trace_shard,
                     run_trace_campaign)
from .swf import (FIELD_NAMES, SWFError, SWFJob, SWFLog, parse_swf,
                  parse_swf_text, serialize_swf)

__all__ = [
    "FIELD_NAMES", "SWFError", "SWFJob", "SWFLog",
    "parse_swf", "parse_swf_text", "serialize_swf",
    "MAPPING_POLICIES", "MappingConfig", "TraceMappingError",
    "machine_size", "map_job", "map_jobs", "scale_executions",
    "scale_to_utilization", "segment_log", "window_jobs",
    "TraceGrid", "TraceWindowPayload", "assemble_trace_rows",
    "build_window_payloads", "evaluate_trace_shard", "run_trace_campaign",
]
