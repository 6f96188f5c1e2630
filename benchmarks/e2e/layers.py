"""Where the ``--trace`` run puts its spans, and the per-layer metrics.

:func:`install` lists every layer boundary the benchmark wraps, each as
the attribute the *caller* looks up — rebinding a module global in the
module that imported it, or a method on its class.
:func:`layer_metrics` computes the ``per_layer`` metrics of
``BENCHMARK.json``, which names them and gives their units.  The
end-to-end metric each layer should move is documented in README.md.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracing import OBSERVE, Tracer

__all__ = ["SERVICE_KINDS", "install", "cache_counts", "layer_metrics",
           "shares"]

SERVICE_KINDS = ("admit_dry", "admit", "leave", "advance", "query",
                 "batch_analyze")
SERVICE_STATE = ("analyze", "admit", "leave", "advance", "analyze_batch")


def _count_set(tracer: Tracer) -> Callable[[Any, tuple, dict], None]:
    def after(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("sets")
    return after


def _inflation(tracer: Tracer) -> Callable[[Any, tuple, dict], None]:
    def after(result: Any, args: tuple, kwargs: dict) -> None:
        iters = [inf.iterations for inf in result]
        tracer.count("inflation.tasks", len(iters))
        tracer.count("inflation.iters", sum(iters))
        tracer.peak("inflation.iters_max", max(iters, default=0))
    return after


def _packing(tracer: Tracer) -> Callable[[Any, tuple, dict], None]:
    def after(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.count("packing.bins", result.processors)
        tracer.count("packing.sets")
    return after


def _file_write(tracer: Tracer) -> Callable[[Any, tuple, dict], None]:
    def after(result: Any, args: tuple, kwargs: dict) -> None:
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("checkpoint.writes")
        tracer.count("checkpoint.bytes", len(text.encode()))
    return after


def _tier_gates() -> List[Tuple[str, Callable[..., bool]]]:
    """The faster tiers' public ``supports()`` gates, in dispatch order;
    a tier whose module is gone is simply absent."""
    gates = []
    for tier, module in (("vector", "repro.sim.vector"),
                         ("fastpath", "repro.sim.fastpath")):
        try:
            gates.append((tier, importlib.import_module(module).supports))
        except (ImportError, AttributeError):
            pass
    return gates


def _classify(tracer: Tracer) -> Callable[..., None]:
    gates = _tier_gates()

    def before(tasks: Sequence[Any], processors: int, horizon: int,
               policy: Any = None, **kwargs: Any) -> None:
        tier = "reference"
        if kwargs.pop("fastpath", None) is not False:
            kwargs.pop("vector", None)
            for name, supports in gates:
                if supports(list(tasks), processors, horizon, policy, kwargs):
                    tier = name
                    break
        tracer.count(f"tier.{tier}")
    return before


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; missing targets land in
    ``tracer.missing``."""
    sched, replay = "repro.campaign.sched", "repro.traces.replay"
    schedulability = "repro.analysis.schedulability"
    checkpoint = "repro.campaign.checkpoint"
    wraps: List[Tuple[str, str, str, Dict[str, Any]]] = [
        ("repro.campaign.runner:CampaignRunner", "run", "campaign.runner", {}),
        (sched, "evaluate_shard", "campaign.shard", {}),
        (replay, "evaluate_trace_shard", "campaign.shard", {}),
        ("repro.workload.generator:TaskSetGenerator", "generate",
         "workload.generator", {}),
        (replay, "scale_to_utilization", "traces.mapping", {}),
        (replay, "parse_swf", "traces.swf", {}),
        (replay, "build_window_payloads", "traces.replay", {}),
        (sched, "evaluate_task_set", "analysis.schedulability",
         {"after": _count_set(tracer)}),
        (replay, "evaluate_task_set", "analysis.schedulability",
         {"after": _count_set(tracer)}),
        (sched, "pd2_min_processors", "analysis.schedulability",
         {"after": _count_set(tracer)}),
        (sched, "edf_ff_min_processors", "analysis.schedulability", {}),
        ("repro.service.state", "pd2_min_processors",
         "analysis.schedulability", {"after": _count_set(tracer)}),
        ("repro.service.state", "edf_ff_min_processors",
         "analysis.schedulability", {}),
        (schedulability, "task_set_cache_key", "analysis.key", {}),
        ("repro.service.state", "task_set_cache_key", "analysis.key", {}),
        (schedulability, "pd2_inflate_set", "overheads.inflation",
         {"after": _inflation(tracer)}),
        (schedulability, "edf_ff", "partition.partitioner",
         {"after": _packing(tracer)}),
        (f"{checkpoint}:CheckpointStore", "initialize",
         "campaign.checkpoint", {}),
        (f"{checkpoint}:CheckpointStore", "write_shard",
         "campaign.checkpoint", {}),
        (f"{checkpoint}:CheckpointStore", "write_status",
         "campaign.checkpoint", {}),
        (checkpoint, "atomic_write_text", "analysis.persistence",
         {"after": _file_write(tracer)}),
        (sched, "save_campaign", "analysis.persistence", {}),
        (replay, "save_campaign", "analysis.persistence", {}),
        ("repro.sim.quantum", "simulate_pfair", "sim.quantum",
         {"before": _classify(tracer)}),
        ("repro.sim.vector:VectorPD2Simulator", "__init__",
         "sim.vector.init", {}),
        ("repro.sim.vector:VectorPD2Simulator", "run", "sim.vector.run", {}),
        ("repro.sim.fastpath:FastPD2Simulator", "__init__",
         "sim.fastpath.init", {}),
        ("repro.sim.fastpath:FastPD2Simulator", "run", "sim.fastpath.run", {}),
        ("repro.core.quantum:QuantumSimulator", "__init__",
         "core.quantum.init", {}),
        ("repro.core.quantum:QuantumSimulator", "run", "core.quantum.run", {}),
        *[("repro.service.state:ServiceState", verb, f"service.state.{verb}",
           {}) for verb in SERVICE_STATE],
        ("repro.core.dynamic:DynamicPfairSystem", "advance",
         "core.dynamic.advance", {}),
    ]
    for target, attr, name, hooks in wraps:
        tracer.wrap(target, attr, name, **hooks)


def cache_counts(service_cache: Any = None) -> Dict[str, Tuple[int, int]]:
    """``(hits, misses)`` of the program's caches, read from outside."""
    out: Dict[str, Tuple[int, int]] = {}
    for key, module, attr in (("analysis", "repro.analysis.schedulability",
                               "ANALYSIS_CACHE"),
                              ("sim", "repro.sim.cache", "HYPERPERIOD_CACHE")):
        cache = getattr(importlib.import_module(module), attr, None)
        if cache is not None:
            out[key] = (cache.hits, cache.misses)
    if service_cache is not None:
        out["service"] = (service_cache.hits, service_cache.misses)
    return out


def _delta(before: Dict[str, Tuple[int, int]],
           after: Dict[str, Tuple[int, int]], key: str) -> Tuple[int, int]:
    if key not in before or key not in after:
        return 0, 0
    return (after[key][0] - before[key][0], after[key][1] - before[key][1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *,
                  caches: Tuple[Dict[str, Tuple[int, int]],
                                Dict[str, Tuple[int, int]]],
                  rtt_ms: Dict[str, List[float]],
                  op_seconds: float,
                  live_tasks_max: int,
                  time_factor: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass, except
    ``trace_overhead``, which needs the untraced run too.  Span times
    are scaled by ``time_factor`` to reference speed."""
    selfs, calls = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima
    sets = counts["sets"]
    a_hits, a_miss = _delta(*caches, "analysis")
    s_hits, s_miss = _delta(*caches, "sim")
    v_hits, v_miss = _delta(*caches, "service")
    state_inclusive = sum(
        end - start for name, start, end, parent in tracer.spans
        if name.startswith("service.state.")
        and (parent < 0 or not tracer.spans[parent][0].startswith(
            "service.state.")))
    m: Dict[str, float] = {
        "workload.generator.calls": calls["workload.generator"],
        "workload.generator.self_s": selfs["workload.generator"],
        "traces.mapping.calls": calls["traces.mapping"],
        "traces.mapping.self_s": selfs["traces.mapping"],
        "traces.swf.parse_s": selfs["traces.swf"],
        "traces.replay.payload_s": selfs["traces.replay"],
        "overheads.inflation.calls": calls["overheads.inflation"],
        "overheads.inflation.self_s": selfs["overheads.inflation"],
        "overheads.inflation.tasks": counts["inflation.tasks"],
        "overheads.inflation.iters_mean": _ratio(counts["inflation.iters"],
                                                 counts["inflation.tasks"]),
        "overheads.inflation.iters_max": maxima["inflation.iters_max"],
        "overheads.inflation.calls_per_set": _ratio(
            calls["overheads.inflation"], sets),
        "partition.partitioner.calls": calls["partition.partitioner"],
        "partition.partitioner.self_s": selfs["partition.partitioner"],
        "partition.partitioner.bins_per_set": _ratio(counts["packing.bins"],
                                                     counts["packing.sets"]),
        "analysis.schedulability.self_s": selfs["analysis.schedulability"],
        "analysis.schedulability.key_calls": calls["analysis.key"],
        "analysis.schedulability.key_self_s": selfs["analysis.key"],
        "analysis.cache.hits": a_hits,
        "analysis.cache.misses": a_miss,
        "analysis.cache.hit_ratio": _ratio(a_hits, a_hits + a_miss),
        "campaign.checkpoint.writes": counts["checkpoint.writes"],
        "campaign.checkpoint.self_s": selfs["campaign.checkpoint"],
        "campaign.checkpoint.bytes": counts["checkpoint.bytes"],
        "analysis.persistence.self_s": selfs["analysis.persistence"],
        "campaign.runner.self_s": selfs["campaign.runner"],
        "campaign.shard.self_s": selfs["campaign.shard"],
        "sim.quantum.tier_vector": counts["tier.vector"],
        "sim.quantum.tier_fastpath": counts["tier.fastpath"],
        "sim.quantum.tier_reference": counts["tier.reference"],
        "sim.quantum.self_s": selfs["sim.quantum"],
        "sim.vector.init_s": selfs["sim.vector.init"],
        "sim.vector.run_self_s": selfs["sim.vector.run"],
        "sim.fastpath.run_self_s": selfs["sim.fastpath.run"],
        "core.quantum.run_self_s": selfs["core.quantum.run"],
        "sim.cache.hits": s_hits,
        "sim.cache.misses": s_miss,
        "sim.cache.hit_ratio": _ratio(s_hits, s_hits + s_miss),
        "service.cache.hit_ratio": _ratio(v_hits, v_hits + v_miss),
        "core.dynamic.advance_self_s": selfs["core.dynamic.advance"],
        "core.dynamic.live_tasks_max": live_tasks_max,
        "service.wait_s": (op_seconds - state_inclusive
                           if state_inclusive else 0.0),
    }
    for kind in SERVICE_KINDS:
        samples = rtt_ms.get(kind, [])
        m[f"service.client.rtt_p50_ms.{kind}"] = (
            statistics.median(samples) if samples else 0.0)
    for verb in SERVICE_STATE:
        m[f"service.state.{verb}.self_s"] = selfs[f"service.state.{verb}"]
    return {k: v * time_factor if k.endswith("_s") else v
            for k, v in m.items()}


#: Span names grouped into the campaign layers README's share table uses.
SHARE_GROUPS = {
    "generate": ("workload.generator",),
    "inflate": ("overheads.inflation",),
    "pack": ("partition.partitioner",),
    "cache_key": ("analysis.key",),
    "analysis": ("analysis.schedulability",),
    "map": ("traces.mapping",),
    "checkpoint": ("campaign.checkpoint", "analysis.persistence"),
    "runner": ("campaign.runner", "campaign.shard"),
    "sim": ("sim.quantum", "sim.vector.init", "sim.vector.run",
            "sim.fastpath.init", "sim.fastpath.run", "core.quantum.init",
            "core.quantum.run"),
}


def shares(tracer: Tracer, labels: Sequence[str]
           ) -> Dict[str, Dict[str, float]]:
    """Per op label, each layer group's share of op wall time.

    ``labels[k]`` names the k-th ``op`` root span (e.g. ``N=100``).
    Observer spans are tracer cost and are left out of every share.
    """
    root = tracer.roots()
    op_label: Dict[int, str] = {}
    k = 0
    for i, span in enumerate(tracer.spans):
        if span[0] == "op" and span[3] < 0:
            op_label[i] = labels[k]
            k += 1
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    group_of = {n: g for g, names in SHARE_GROUPS.items() for n in names}
    totals: Dict[str, float] = {}
    sums: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _parent) in enumerate(tracer.spans):
        label: Optional[str] = op_label.get(root[i])
        if label is None:
            continue
        if name == "op":
            totals[label] = totals.get(label, 0.0) + (end - start)
            continue
        group = group_of.get(name)
        if group is None or name == OBSERVE:
            continue
        bucket = sums.setdefault(label, {})
        bucket[group] = bucket.get(group, 0.0) + (end - start) - child[i]
    return {label: {g: round(_ratio(v, totals[label]), 4)
                    for g, v in sorted(sums[label].items())}
            for label in sorted(totals) if label in sums}
