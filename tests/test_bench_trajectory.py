"""The committed benchmark trajectory (``BENCH_e2e.json``) and the script
that appends to it (``benchmarks/trajectory.py``).

The file records medians; it checks no bound (``BENCHMARK.json`` keeps
those).  These tests only hold its shape: every entry covers every
workload and every end-to-end metric, on the parent side too when the
entry records one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def test_committed_trajectory_covers_every_workload_and_metric():
    spec = trajectory.load_spec()
    entries = json.loads((ROOT / "BENCH_e2e.json").read_text())
    trajectory.check_entries(entries, spec)
    assert len(trajectory.workload_names(spec)) == 4
    assert len(trajectory.metric_names(spec)) == 5
    for entry in entries:
        assert len(entry["workloads"]) == 4
        assert all(len(b["metrics"]) == 5
                   for b in entry["workloads"].values())
    assert any(not e["transcribed"] for e in entries)


def _record(workload, seed, value, **extra):
    metrics = {m: {"value": value, "unit": "x", "n": 1}
               for m in trajectory.metric_names(trajectory.load_spec())}
    return {"workload": workload, "seed": seed, "seconds": 12.0,
            "failed": 0, "metrics": metrics, "host": {"nproc": 2}, **extra}


def test_entry_holds_median_and_quartiles_per_workload(tmp_path):
    spec = trajectory.load_spec()
    records = [_record(w, s, float(s)) for w in trajectory.workload_names(spec)
               for s in range(1, 6)]
    records.append(_record("service_admit", 9, 1e9, trace=True))  # ignored
    series = tmp_path / "change.json"
    series.write_text(json.dumps(records))
    out = tmp_path / "BENCH_e2e.json"
    assert trajectory.main([str(series), "--pr", "7", "--parent", "abc",
                            "--out", str(out)]) == 0
    [entry] = json.loads(out.read_text())
    block = entry["workloads"]["service_admit"]
    assert block["seeds"] == [1, 2, 3, 4, 5]
    assert block["metrics"]["work_per_s"] == {"median": 3.0, "q1": 1.5,
                                              "q3": 4.5}
    assert (entry["pr"], entry["commit"], entry["parent"]) == (7, None, "abc")
    assert entry["transcribed"] is False and entry["host"] == {"nproc": 2}


def test_entry_refuses_a_workload_with_too_few_runs():
    spec = trajectory.load_spec()
    records = [_record(w, s, 1.0) for w in trajectory.workload_names(spec)
               for s in (1, 2)]
    with pytest.raises(ValueError, match="sim_pd2: 1 runs"):
        trajectory.make_entry(
            [r for r in records
             if not (r["workload"] == "sim_pd2" and r["seed"] == 2)],
            spec, pr=1, commit=None, parent=None)


def test_entry_records_the_parent_side_beside_the_change(tmp_path):
    spec = trajectory.load_spec()
    names = trajectory.workload_names(spec)
    change, parent = tmp_path / "change.json", tmp_path / "parent.json"
    change.write_text(json.dumps([_record(w, s, float(s)) for w in names
                                  for s in range(1, 6)]))
    parent.write_text(json.dumps([_record(w, s, 10.0 * s) for w in names
                                  for s in range(1, 6)]))
    out = tmp_path / "BENCH_e2e.json"
    # One entry without a parent side, one with: both are valid.
    assert trajectory.main([str(change), "--pr", "7", "--out",
                            str(out)]) == 0
    assert trajectory.main([str(change), "--pr", "8", "--parent", "abc",
                            "--parent-series", str(parent),
                            "--out", str(out)]) == 0
    without, entry = json.loads(out.read_text())
    assert "parent_workloads" not in without
    trajectory.check_entries([without, entry], spec)
    for w in names:
        assert entry["workloads"][w]["metrics"]["work_per_s"]["median"] == 3.0
        side = entry["parent_workloads"][w]
        assert side["seeds"] == [1, 2, 3, 4, 5]
        assert side["metrics"]["work_per_s"] == {"median": 30.0, "q1": 15.0,
                                                 "q3": 45.0}


def test_parent_side_is_checked_like_the_change_side():
    spec = trajectory.load_spec()
    names = trajectory.workload_names(spec)
    records = [_record(w, s, 1.0) for w in names for s in (1, 2)]
    entry = trajectory.make_entry(records, spec, pr=1, commit=None,
                                  parent=None, parent_records=records)
    del entry["parent_workloads"]["sim_pd2"]
    with pytest.raises(ValueError, match="parent_workloads: workloads"):
        trajectory.check_entries([entry], spec)
    with pytest.raises(ValueError, match="runs of different lengths"):
        trajectory.make_entry(
            records, spec, pr=1, commit=None, parent=None,
            parent_records=[{**r, "seconds": 6.0} for r in records])
