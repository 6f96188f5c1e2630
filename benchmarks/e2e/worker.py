"""One workload in one fresh process; spawned by ``run.py``.

Protocol on stdout: a ``READY`` line once set-up is done (imports,
fixtures, server start) and just before the first operation, then one
``RESULT <json>`` line.  Diagnostics go to stderr.  ``--setup-only``
exits right after ``READY``, which is how ``run.py`` samples set-up
time several times per run.

Every run does fixed-size work, so two commits always do identical
work: ``round(rate * --seconds)`` units after the warm-up, where
``rate`` is the workload's units per second on the reference host
(``Workload.rate``), and never fewer than the golden prefix.  With
``--trace 1`` the layer wrappers of ``layers.py`` are installed first
and the result carries per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

STARTED = perf_counter()
ROOT = Path(__file__).resolve().parents[2]
#: No unit starts later than this after process start, so the worker
#: always ends inside the caller's 180 s limit.
WALL_CAP_S = 140.0

from calibrate import SpeedLog  # noqa: E402
from layers import cache_counts, install, layer_metrics, shares  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class Pass:
    """What one pass over the unit stream measured."""

    def __init__(self) -> None:
        #: ``(start, end)`` of each timed operation, and its duration
        #: rescaled to reference speed (see calibrate.py).
        self.spans: List[Tuple[float, float]] = []
        self.latencies: List[float] = []
        self.labels: List[str] = []
        self.speed = SpeedLog()
        self.work = 0
        self.failures: List[str] = []
        #: Over the golden prefix (pinned in expected.json) and over every
        #: unit (equal across commits for the same seed and length).
        self.golden = hashlib.sha256()
        self.digest = hashlib.sha256()
        self.live_tasks_max = 0
        self.caches: Tuple[Dict[str, Tuple[int, int]], ...] = ()


def _caches(wl: Workload) -> Dict[str, Tuple[int, int]]:
    state = getattr(wl, "state", None)
    return cache_counts(state.cache if state is not None else None)


def _run_unit(wl: Workload, i: int, p: Pass, tracer: Optional[Tracer],
              timed: bool) -> None:
    payload = wl.unit(i)
    if tracer is not None:
        tracer.active = True
        span = tracer.enter("op")
    t0 = perf_counter()
    try:
        result = wl.op(payload)
        error = None
    except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
        result, error = None, traceback.format_exc(limit=3)
    t1 = perf_counter()
    if tracer is not None:
        tracer.leave(span)
        tracer.active = False
    work, digest = 0, b"failed"
    if error is None:
        try:
            work, digest, error = wl.check(i, payload, result)
        except Exception:  # noqa: BLE001 — a broken output is a failure
            error = traceback.format_exc(limit=3)
    digest = hashlib.sha256(digest).digest()
    if i < wl.golden_units:
        p.golden.update(digest)
    p.digest.update(digest)
    if error is not None:
        p.failures.append(error)
    if timed:
        p.work += work
        p.spans.append((t0, t1))
        p.labels.append(wl.label(payload))
        live = getattr(wl, "live_tasks", None)
        if tracer is not None and live is not None:
            p.live_tasks_max = max(p.live_tasks_max, live())


def run_pass(wl: Workload, units: int,
             tracer: Optional[Tracer] = None) -> Pass:
    """Warm up, then time units up to index ``units``.  Cache counters
    and speed samples bracket the timed units."""
    p = Pass()
    for i in range(wl.warmup_units):
        _run_unit(wl, i, p, None, timed=False)
    before = _caches(wl)
    p.speed.sample()
    for i in range(wl.warmup_units, units):
        if perf_counter() - STARTED > WALL_CAP_S:
            p.failures.append(f"stopped at unit {i}: {WALL_CAP_S:.0f} s cap")
            break
        _run_unit(wl, i, p, tracer, timed=True)
        if p.speed.due():
            p.speed.sample()
    p.speed.sample()
    p.caches = (before, _caches(wl))
    p.latencies = p.speed.normalize(p.spans)
    return p


def _quantile_ms(values: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) * 1000.0


def unit_count(wl: Workload, seconds: float) -> int:
    """End of the unit range for a run of nominal length ``seconds``."""
    return max(wl.golden_units, wl.warmup_units + round(wl.rate * seconds))


def _summary(wl: Workload, work: int,
             durations: List[float]) -> Dict[str, float]:
    return {"work_per_s": work / sum(durations),
            "op_p50_ms": _quantile_ms(durations, 0.5),
            "op_tail_ms": _quantile_ms(durations, wl.tail_q)}


def measure(wl: Workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run the workload; the ``RESULT`` payload.  Times are at reference
    speed; ``raw`` holds the same end-to-end figures unscaled."""
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    try:
        p = run_pass(wl, unit_count(wl, seconds), tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    raw = [end - start for start, end in p.spans]
    out: Dict[str, Any] = {
        "attempted": len(p.latencies),
        "busy_s": sum(p.latencies),
        "raw_busy_s": sum(raw),
        "failed": len(p.failures),
        "failures": p.failures[:10],
        "golden": p.golden.hexdigest(),
        "digest": p.digest.hexdigest(),
        "tail_q": wl.tail_q,
        "work_unit": wl.work_unit,
    }
    if tracer is None:
        out["metrics"] = dict(
            _summary(wl, p.work, p.latencies),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        out["raw"] = _summary(wl, p.work, raw)
    else:
        # Spans are rescaled by the pass's overall speed factor.
        factor = out["busy_s"] / out["raw_busy_s"]
        rtt: Dict[str, List[float]] = {}
        for label, dt in zip(p.labels, p.latencies):
            rtt.setdefault(label, []).append(dt * 1000.0)
        out["metrics"] = layer_metrics(
            tracer, caches=p.caches, rtt_ms=rtt, op_seconds=sum(raw),
            live_tasks_max=p.live_tasks_max, time_factor=factor)
        out["shares"] = shares(tracer, p.labels)
        out["missing"] = sorted(set(tracer.missing))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = ROOT / "benchmarks" / "out" / "e2e" / "tmp" / \
        f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        try:
            print("READY", flush=True)
            if not args.setup_only:
                out = measure(wl, args.seconds, bool(args.trace))
                print("RESULT " + json.dumps(out, sort_keys=True), flush=True)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
