"""Append one change's end-to-end benchmark medians to ``BENCH_e2e.json``.

``benchmarks/e2e/run.py compare`` judges a change against its parent
and then forgets both.  This script keeps the trajectory: it reads the
change-side series file(s) of a ``compare`` run (the files that
``run.py --append`` writes) and appends one entry to the root
``BENCH_e2e.json``::

    python3 benchmarks/trajectory.py CHANGE.json [MORE.json ...] \\
        --pr N --parent SHA [--commit SHA] [--out BENCH_e2e.json] \\
        [--parent-series PARENT.json [MORE.json ...]]

An entry holds the change's sequence number (``pr``), the commit it
measured, the parent it was compared against, the host, and, per
workload, the seeds, the failed-operation count and the median and
quartiles of each end-to-end metric that ``BENCHMARK.json`` lists.
With ``--parent-series``, the parent side of the same ``compare`` run
is summarised the same way under ``parent_workloads``, so a reader can
set a change beside the parent it was measured with rather than beside
an entry measured on another day.  Entries without it stay valid.  An
entry committed together with the change it measures cannot name its
own hash, so ``commit`` may be ``null``; ``parent`` then locates it.
Entries marked ``"transcribed": true`` were copied from the medians
recorded in ``CHANGES.md`` before this file existed; a metric that line
did not record is ``null``.

The file records; it checks no bound.  ``BENCHMARK.json`` keeps the
bounds, and ``run.py compare`` applies them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "BENCH_e2e.json"
STAT_KEYS = ("median", "q1", "q3")


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_names(spec: Dict[str, Any]) -> List[str]:
    return [m["name"] for m in spec["end_to_end"]]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, by the rule ``run.py compare`` prints them
    with (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        raise ValueError("need at least two runs for quartiles")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def read_series(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    """The untraced run records of every series file, in file order."""
    records: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(path.read_text())
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected a list of run records "
                             f"(written by run.py --append)")
        records += [r for r in data if not r.get("trace")]
    return records


def _workload_blocks(records: Sequence[Dict[str, Any]], spec: Dict[str, Any],
                     hosts: List[Dict[str, Any]],
                     seconds: Set[float]) -> Dict[str, Any]:
    """Per workload of ``spec``: seeds, failures and metric summaries of
    one side's run records; adds their hosts and run lengths to
    ``hosts`` and ``seconds``."""
    metrics = metric_names(spec)
    workloads: Dict[str, Any] = {}
    for w in workload_names(spec):
        runs = [r for r in records if r["workload"] == w]
        seeds = [r["seed"] for r in runs]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{w}: a seed was run twice")
        if len(runs) < 2:
            raise ValueError(f"{w}: {len(runs)} runs, need at least 2")
        workloads[w] = {
            "seeds": sorted(seeds),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m: summarize([r["metrics"][m]["value"] for r in runs])
                        for m in metrics},
        }
        seconds.update(r["seconds"] for r in runs)
        for r in runs:
            if r["host"] not in hosts:
                hosts.append(r["host"])
    return workloads


def make_entry(records: Sequence[Dict[str, Any]], spec: Dict[str, Any], *,
               pr: int, commit: Optional[str], parent: Optional[str],
               parent_records: Optional[Sequence[Dict[str, Any]]] = None
               ) -> Dict[str, Any]:
    """One trajectory entry from the change side's run records, and from
    the parent side's when ``parent_records`` is given.

    Every workload of ``spec`` needs at least two runs per side, each on
    its own seed and all of one length, or the entry is refused.
    """
    hosts: List[Dict[str, Any]] = []
    seconds: Set[float] = set()
    workloads = _workload_blocks(records, spec, hosts, seconds)
    parent_side = (None if parent_records is None else
                   _workload_blocks(parent_records, spec, hosts, seconds))
    if len(seconds) != 1:
        raise ValueError(f"runs of different lengths: {sorted(seconds)}")
    entry: Dict[str, Any] = {
        "pr": pr, "commit": commit, "parent": parent, "transcribed": False,
        "host": hosts[0] if len(hosts) == 1 else hosts,
        "seconds": seconds.pop(), "workloads": workloads}
    if parent_side is not None:
        entry["parent_workloads"] = parent_side
    return entry


def check_entries(entries: Any, spec: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``entries`` is a list of entries that
    each hold every workload and every end-to-end metric of ``spec``, on
    the parent side too where an entry records it."""
    if not isinstance(entries, list):
        raise ValueError("BENCH_e2e.json must hold a list of entries")
    workloads, metrics = workload_names(spec), metric_names(spec)
    for i, entry in enumerate(entries):
        where = f"entry {i} (pr {entry.get('pr')})"
        for key in ("pr", "commit", "parent", "transcribed", "host",
                    "workloads"):
            if key not in entry:
                raise ValueError(f"{where}: no {key!r}")
        for side in ("workloads", "parent_workloads"):
            if side in entry:
                _check_side(f"{where} {side}", entry[side], workloads,
                            metrics, entry["transcribed"])


def _check_side(where: str, blocks: Dict[str, Any], workloads: List[str],
                metrics: List[str], transcribed: bool) -> None:
    """One side of an entry: every workload, every metric, quartiles in
    order, and no null in a measured entry."""
    if sorted(blocks) != sorted(workloads):
        raise ValueError(f"{where}: workloads {sorted(blocks)}")
    for w, block in blocks.items():
        if sorted(block["metrics"]) != sorted(metrics):
            raise ValueError(f"{where}: {w} metrics "
                             f"{sorted(block['metrics'])}")
        for m, stats in block["metrics"].items():
            if sorted(stats) != sorted(STAT_KEYS):
                raise ValueError(f"{where}: {w}.{m} keys {sorted(stats)}")
            if not transcribed and None in stats.values():
                raise ValueError(f"{where}: {w}.{m} measured but null")
            known = [stats[k] for k in ("q1", "median", "q3")
                     if stats[k] is not None]
            if known != sorted(known):
                raise ValueError(f"{where}: {w}.{m} quartiles out of "
                                 f"order: {stats}")


def append(entry: Dict[str, Any], out: Path, spec: Dict[str, Any]) -> None:
    entries = json.loads(out.read_text()) if out.exists() else []
    entries.append(entry)
    check_entries(entries, spec)
    out.write_text(json.dumps(entries, indent=1) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="trajectory.py",
        description="append a compare run's change-side medians to "
                    "BENCH_e2e.json")
    ap.add_argument("series", type=Path, nargs="+",
                    help="change-side series file(s) from run.py --append")
    ap.add_argument("--pr", type=int, required=True,
                    help="the change's sequence number")
    ap.add_argument("--commit", default=None,
                    help="the measured commit (omit when the entry is "
                         "committed with the change itself)")
    ap.add_argument("--parent", default=None,
                    help="the commit the change was compared against")
    ap.add_argument("--parent-series", type=Path, nargs="+", default=None,
                    metavar="FILE",
                    help="the same compare run's parent-side series "
                         "file(s), recorded beside the change's")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    spec = load_spec()
    try:
        parent_records = (None if args.parent_series is None
                          else read_series(args.parent_series))
        entry = make_entry(read_series(args.series), spec, pr=args.pr,
                           commit=args.commit, parent=args.parent,
                           parent_records=parent_records)
        append(entry, args.out, spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"trajectory: {exc}", file=sys.stderr)
        return 2
    for w, block in entry["workloads"].items():
        s = block["metrics"]["work_per_s"]
        line = (f"{w}: work_per_s median {s['median']:.6g} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}] over {len(block['seeds'])} "
                f"runs")
        if "parent_workloads" in entry:
            ps = entry["parent_workloads"][w]["metrics"]["work_per_s"]
            line += (f" (parent {ps['median']:.6g} "
                     f"[{ps['q1']:.6g}, {ps['q3']:.6g}])")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
