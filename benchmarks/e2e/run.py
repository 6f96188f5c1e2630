"""End-to-end benchmark of the reproduction: four workloads, one command.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W|all] [--seed S]
                                  [--seconds T] [--trace [0|1]] [--smoke]
                                  [--append FILE]
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json
    python3 benchmarks/e2e/run.py agree [--runs N] [--seed S]
                                        [--workload W|all]

Each workload runs in its own fresh worker process (``worker.py``),
single-process, with numeric libraries pinned to one thread, and
run.py and its workers pinned to one CPU.  Before the measured worker,
``SETUPS`` extra workers start and exit right after set-up, so
``setup_s`` is a median over several cold starts.  Times are rescaled
to a reference machine speed (``calibrate.py``).
Every metric is printed as ``workload: name value unit (n=samples)``;
the run record is written under ``benchmarks/out/e2e/`` and, with
``--append``, added to a series file for ``compare``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace 1``).

The run exits 1 when any check fails (an operation raised, a
cross-check disagreed, or the golden digest in ``expected.json`` does
not match), and 2 without a result line when it cannot run at all.
See README.md for the workloads, the metrics and the protocols.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from calibrate import kernel_seconds, setup_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "benchmarks" / "out" / "e2e"
#: Whole-command limit the worker timeouts are carved from.
COMMAND_LIMIT_S = 175.0
#: Set-up-only starts per untraced run; ``setup_s`` is their median.
SETUPS = 5
SMOKE_SECONDS = 0.4
MIN_PAIRS = 10


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def _pin_to_one_cpu() -> None:
    """Pin this process, and so every worker it starts, to one CPU: the
    admission service's client and server threads then hand the
    interpreter lock over on one core, which removes most of their
    run-to-run spread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(workload: str, seed: int, seconds: float, trace: bool, *,
          setup_only: bool, timeout: float
          ) -> Tuple[Optional[float], Optional[Dict[str, Any]], int]:
    """Run one worker; ``(seconds to READY, RESULT payload, exit code)``.

    The worker is always waited for; past ``timeout`` it is killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    ready: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, result, rc


def _host() -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def _expected(workload: str, seed: int) -> Optional[str]:
    data = json.loads((HERE / "expected.json").read_text())
    return data.get(workload, {}).get(str(seed))


def _measured(workload: str, seed: int, seconds: float, trace: bool,
              deadline: float) -> Tuple[float, Dict[str, Any]]:
    ready, result, rc = spawn(workload, seed, seconds, trace,
                              setup_only=False,
                              timeout=deadline - perf_counter())
    if rc != 0 or ready is None or result is None:
        raise BenchError(f"{workload}: worker failed (exit {rc})")
    return ready, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setups: int, spec: Dict[str, Any],
                 deadline: float) -> Dict[str, Any]:
    """One run record.

    Untraced: ``setups`` set-up-only workers, then the measured worker.
    Traced: an untraced and a traced worker over the same half-length
    unit range, each in a fresh process, for ``trace_overhead``.
    """
    samples: List[float] = []
    started = time.time()
    ready: Optional[float] = None
    if trace:
        _, plain = _measured(workload, seed, seconds / 2, False, deadline)
        ready, result = _measured(workload, seed, seconds / 2, True,
                                  deadline)
        result["metrics"]["trace_overhead"] = \
            result["busy_s"] / plain["busy_s"]
        result["failures"] += plain["failures"]
        result["failed"] += plain["failed"]
        if plain["digest"] != result["digest"]:
            result["failures"].append("traced and untraced runs disagree")
            result["failed"] += 1
    else:
        for _ in range(setups):
            before = kernel_seconds()
            probe, _, rc = spawn(workload, seed, seconds, False,
                                 setup_only=True,
                                 timeout=deadline - perf_counter())
            if rc != 0 or probe is None:
                raise BenchError(f"{workload}: set-up failed (exit {rc})")
            samples.append(setup_seconds(probe,
                                         (before + kernel_seconds()) / 2))
        started = time.time()
        ready, result = _measured(workload, seed, seconds, False, deadline)
    if not samples:
        samples.append(ready)  # no probes: the measured worker's, unscaled

    failures = list(result["failures"])
    expected = _expected(workload, seed)
    if expected is None:
        golden_status = "unpinned"
    elif expected == result["golden"]:
        golden_status = "match"
    else:
        golden_status = "mismatch"
        failures.append(f"golden digest {result['golden']} != {expected}")
    failed = result["failed"] + (golden_status == "mismatch")
    n_ops = result["attempted"]

    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                                  "unit": m["unit"], "n": n_ops}
    else:
        measured = dict(result["metrics"], setup_s=statistics.median(samples))
        counts = {"setup_s": len(samples), "peak_rss_mb": 1}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": measured[m["name"]],
                                  "unit": m["unit"],
                                  "n": counts.get(m["name"], n_ops)}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "started": started,
        "correct": failed == 0, "attempted": n_ops, "failed": failed,
        "failures": failures[:10], "golden": result["golden"],
        "golden_status": golden_status, "digest": result["digest"],
        "tail_q": result["tail_q"], "work_unit": result["work_unit"],
        "setup_samples": samples, "worker_setup_s": ready,
        "metrics": metrics, "raw": result.get("raw"),
        "shares": result.get("shares"), "missing": result.get("missing"),
        "host": _host(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(record: Dict[str, Any]) -> None:
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w}: {name} {_fmt(m['value'])} {m['unit']} (n={m['n']})")
    print(f"{w}: failed_frac {_fmt(record['failed'] / record['attempted'])} "
          f"(n={record['attempted']})")
    print(f"{w}: golden digest {record['golden_status']} "
          f"(seed {record['seed']}: {record['golden']})")
    for label, groups in (record.get("shares") or {}).items():
        parts = ", ".join(f"{g} {v:.1%}" for g, v in groups.items())
        print(f"{w}: shares {label}: {parts}")
    if record.get("missing"):
        print(f"{w}: missing layers: {', '.join(record['missing'])}")
    for failure in record["failures"]:
        print(f"{w}: FAILED {failure.strip().splitlines()[-1]}",
              file=sys.stderr)


def _save(record: Dict[str, Any], append: Optional[Path]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(record["started"]))
    suffix = "-trace" if record["trace"] else ""
    name = f"{stamp}-{record['workload']}-s{record['seed']}{suffix}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
    if append is not None:
        series = json.loads(append.read_text()) if append.exists() else []
        series.append(record)
        append.write_text(json.dumps(series, indent=1, sort_keys=True) + "\n")


def run_many(workloads: Sequence[str], seed: int, seconds: float,
             trace: bool, setups: int,
             append: Optional[Path] = None) -> List[Dict[str, Any]]:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    records = []
    for w in workloads:
        deadline = perf_counter() + COMMAND_LIMIT_S
        record = run_workload(w, seed, seconds, trace, setups, spec,
                              deadline)
        report(record)
        _save(record, append)
        records.append(record)
    return records


def result_line(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The last output line; names carry a workload prefix only when one
    command ran several workloads."""
    single = len(records) == 1
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = name if single else f"{r['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


# -- compare ------------------------------------------------------------------


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], *,
            better: str, bound: float) -> str:
    """The paired-run rule of README.md on ``parent[i]`` versus
    ``change[i]``: ``gain``, ``regression``, ``loss``, ``unresolved`` or
    ``same``."""
    lower = better == "lower"
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if worse > bound:
        return "regression"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    clear = abs(cmed - pmed) > pq3 - pq1
    if clear and worse < 0 and sum(
            beats(c, p) for p, c in zip(parent, change)) >= 0.9 * len(parent):
        return "gain"
    # The mirror of a gain: a slowdown within the bound that the pairs
    # still show consistently.  Reported, but not a regression.
    if clear and worse > 0 and sum(
            beats(p, c) for p, c in zip(parent, change)) >= 0.9 * len(parent):
        return "loss"
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def _series(path: Path) -> List[Dict[str, Any]]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, list):
        raise BenchError(f"{path}: expected a list of run records "
                         f"(write one with --append)")
    return [r for r in data if not r.get("trace")]


def _by_seed(records: Sequence[Dict[str, Any]], workload: str,
             side: str) -> Dict[int, Dict[str, Any]]:
    out: Dict[int, Dict[str, Any]] = {}
    for r in records:
        if r["workload"] != workload:
            continue
        if r["seed"] in out:
            raise BenchError(f"{side}: {workload} seed {r['seed']} was run "
                             f"twice")
        out[r["seed"]] = r
    return out


def pair_runs(parent: Sequence[Dict[str, Any]],
              change: Sequence[Dict[str, Any]], workload: str
              ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Parent and change runs of ``workload`` on the same seed, in the
    order they ran.  Refuses pairs of different length and pairs that do
    not alternate which side ran first."""
    p = _by_seed(parent, workload, "parent")
    c = _by_seed(change, workload, "change")
    pairs = [(p[s], c[s]) for s in sorted(set(p) & set(c),
                                          key=lambda s: p[s]["started"])]
    for pr, cr in pairs:
        if pr["seconds"] != cr["seconds"]:
            raise BenchError(f"{workload} seed {pr['seed']}: parent ran "
                             f"{pr['seconds']} s, change {cr['seconds']} s")
    first = [pr["started"] < cr["started"] for pr, cr in pairs]
    if any(a == b for a, b in zip(first, first[1:])):
        raise BenchError(f"{workload}: the pairs do not alternate which "
                         f"side ran first")
    return pairs


def compare(parent_path: Path, change_path: Path) -> int:
    spec = load_spec()
    parent, change = _series(parent_path), _series(change_path)
    status = 0
    for w in workload_names(spec):
        pairs = pair_runs(parent, change, w)
        n = len(pairs)
        if n < MIN_PAIRS:
            if any(r["workload"] == w for r in [*parent, *change]):
                print(f"{w}: insufficient: {n} pairs, need {MIN_PAIRS}")
                status = max(status, 2)
            continue
        mismatch = [p["seed"] for p, c in pairs
                    if not (p["correct"] and c["correct"])
                    or p["digest"] != c["digest"]]
        verdicts = {}
        lines = []
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            verdicts[name] = verdict(pv, cv, better=m["better"],
                                     bound=m["bound"])
            pq1, pmed, pq3 = _quartiles(pv)
            cq1, cmed, cq3 = _quartiles(cv)
            lines.append(
                f"    {name:<12} {verdicts[name]:<10} parent {_fmt(pmed)} "
                f"[{_fmt(pq1)}, {_fmt(pq3)}]  change {_fmt(cmed)} "
                f"[{_fmt(cq1)}, {_fmt(cq3)}] {m['unit']}  "
                f"({(cmed - pmed) / pmed:+.1%}, bound {m['bound']:.0%})")
        row = " ".join(f"{k}={v}" for k, v in verdicts.items())
        digest = "ok" if not mismatch else f"MISMATCH on seeds {mismatch}"
        print(f"{w}: n={n} {row} digest={digest}")
        for line in lines:
            print(line)
        if mismatch or "regression" in verdicts.values():
            status = max(status, 1)
    return status


# -- agree --------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Quartile distance over the median."""
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med


def agree(workloads: Sequence[str], runs: int, seed: int) -> int:
    """Two interleaved sets of ``runs`` default-length runs of this
    checkout; every end-to-end median must agree within its bound, and
    every spread must stay inside its bound."""
    spec = load_spec()
    seconds = float(spec["run_seconds"])
    OUT.mkdir(parents=True, exist_ok=True)
    files = {side: OUT / f"agree-{side}.json" for side in "AB"}
    for path in files.values():
        path.unlink(missing_ok=True)
    for i in range(runs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            run_many(workloads, seed + i, seconds, False, SETUPS,
                     append=files[side])
    sets = {side: _series(path) for side, path in files.items()}
    status = 0
    summary: Dict[str, Dict[str, Any]] = {}
    print(f"{'workload':<14} {'metric':<12} {'median A':>11} {'median B':>11}"
          f" {'diff':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    for w in workloads:
        recs = {s: [r for r in sets[s] if r["workload"] == w] for s in "AB"}
        if not all(r["correct"] for s in "AB" for r in recs[s]):
            print(f"{w}: a run failed its checks")
            status = 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = {s: [r["metrics"][name]["value"] for r in recs[s]]
                    for s in "AB"}
            med = {s: statistics.median(vals[s]) for s in "AB"}
            spr = {s: spread(vals[s]) for s in "AB"}
            diff = (med["B"] - med["A"]) / med["A"]
            ok = abs(diff) <= bound and max(spr.values()) <= bound
            summary.setdefault(w, {})[name] = {
                "median_a": med["A"], "median_b": med["B"], "diff": diff,
                "spread_a": spr["A"], "spread_b": spr["B"], "bound": bound,
                "ok": ok}
            print(f"{w:<14} {name:<12} {_fmt(med['A']):>11} "
                  f"{_fmt(med['B']):>11} {diff:>+7.1%} {spr['A']:>9.1%} "
                  f"{spr['B']:>9.1%} {bound:>6.0%}{'' if ok else '  FAIL'}")
            if not ok:
                status = 1
    (OUT / "agree.json").write_text(json.dumps(
        {"runs": runs, "seed": seed, "seconds": seconds, "host": _host(),
         "metrics": summary}, indent=2, sort_keys=True) + "\n")
    return status


# -- entry point --------------------------------------------------------------


def _workloads(spec: Dict[str, Any], arg: str) -> List[str]:
    names = workload_names(spec)
    if arg == "all":
        return names
    if arg not in names:
        raise BenchError(f"unknown workload {arg!r}; "
                         f"choose from {', '.join(names)} or all")
    return [arg]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_to_one_cpu()
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            ap = argparse.ArgumentParser(prog="run.py compare")
            ap.add_argument("parent", type=Path)
            ap.add_argument("change", type=Path)
            args = ap.parse_args(argv[1:])
            return compare(args.parent, args.change)
        if argv[:1] == ["agree"]:
            ap = argparse.ArgumentParser(prog="run.py agree")
            ap.add_argument("--workload", default="all")
            ap.add_argument("--runs", type=int, default=3)
            ap.add_argument("--seed", type=int, default=1)
            args = ap.parse_args(argv[1:])
            return agree(_workloads(spec, args.workload), args.runs,
                         args.seed)
        ap = argparse.ArgumentParser(
            prog="run.py", description=__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        ap.add_argument("--workload", default="all")
        ap.add_argument("--seed", type=int, default=1)
        ap.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
        ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
        ap.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s of work per workload, no "
                             f"set-up probes: correctness checks only")
        ap.add_argument("--append", type=Path,
                        help="add the run records to this series file")
        args = ap.parse_args(argv)
        seconds = SMOKE_SECONDS if args.smoke else args.seconds
        setups = 0 if args.smoke else SETUPS
        records = run_many(_workloads(spec, args.workload), args.seed,
                           seconds, bool(args.trace), setups, args.append)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    line = result_line(records)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
