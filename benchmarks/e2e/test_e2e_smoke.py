"""Smoke test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``.

Runs every workload at ``--smoke`` size (correctness checks and golden
digests, no timing claims), checks that ``BENCHMARK.json`` and the code
name the same workloads and metrics, and pins the edges of run.py: no
result line without the program, the compare rule, and compare's
pairing of runs by seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_code():
    assert run.workload_names(SPEC) == list(workloads.WORKLOADS)
    computed = layers.layer_metrics(
        tracing.Tracer(), caches=({}, {}), rtt_ms={}, op_seconds=0.0,
        live_tasks_max=0, time_factor=1.0)
    assert {m["name"] for m in SPEC["per_layer"]} == \
        {*computed, "trace_overhead"}
    assert {m["name"] for m in SPEC["end_to_end"]} == \
        {"setup_s", "work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_smoke_run_is_correct_and_golden():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for w in run.workload_names(SPEC):
        assert f"{w}: golden digest match (seed 1" in proc.stdout
        for m in SPEC["end_to_end"]:
            assert result["metrics"][f"{w}.{m['name']}"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "campaign_fig3", "--seed", "1", "--seconds", "16", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("parent,change,expected", [
    ([100.0 + i % 3 for i in range(10)], [80.0 + i % 3 for i in range(10)],
     "gain"),
    ([100.0 + i % 3 for i in range(10)], [130.0 + i % 3 for i in range(10)],
     "regression"),
    ([100.0 + i % 3 for i in range(10)], [100.5 + i % 3 for i in range(10)],
     "same"),
    ([100.0 + i % 3 for i in range(10)], [106.0 + i % 3 for i in range(10)],
     "loss"),
    ([100.0 + 30 * (i % 2) for i in range(10)],
     [104.0 + 30 * (i % 2) for i in range(10)], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert run.verdict(parent, change, better="lower", bound=0.1) == expected


def _record(seed, started, value, seconds=16.0, digest=None):
    return {"workload": "sim_pd2", "seed": seed, "seconds": seconds,
            "trace": False, "started": started, "correct": True,
            "digest": digest or f"d{seed}",
            "metrics": {m["name"]: {"value": value}
                        for m in SPEC["end_to_end"]}}


def _compare(tmp_path, parent, change):
    for name, series in (("parent.json", parent), ("change.json", change)):
        (tmp_path / name).write_text(json.dumps(series))
    return run.compare(tmp_path / "parent.json", tmp_path / "change.json")


def _alternating(seeds, value=100.0):
    parent = [_record(s, 2 * k + k % 2, value) for k, s in enumerate(seeds)]
    change = [_record(s, 2 * k + 1 - k % 2, value)
              for k, s in enumerate(seeds)]
    return parent, change


def test_compare_pairs_runs_by_seed(tmp_path, capsys):
    parent, change = _alternating(range(1, 11))
    # A change run on a seed the parent lacks, listed first, must not
    # shift the pairing of the other ten.
    change.insert(0, _record(99, -1.0, 50.0))
    assert _compare(tmp_path, parent, change) == 0
    assert "sim_pd2: n=10" in capsys.readouterr().out


def test_compare_flags_digest_mismatch(tmp_path, capsys):
    parent, change = _alternating(range(1, 11))
    change[3]["digest"] = "other"
    assert _compare(tmp_path, parent, change) == 1
    assert "MISMATCH on seeds [4]" in capsys.readouterr().out


@pytest.mark.parametrize("fault", ["seconds", "order", "duplicate"])
def test_compare_refuses_misaligned_series(tmp_path, fault):
    parent, change = _alternating(range(1, 11))
    if fault == "seconds":
        change[5]["seconds"] = 8.0
    elif fault == "order":
        for k, r in enumerate(parent):  # parent always first
            r["started"], change[k]["started"] = 2 * k, 2 * k + 1
    else:
        change.append(_record(3, 50.0, 100.0))
    with pytest.raises(run.BenchError):  # main() exits 2 on it
        _compare(tmp_path, parent, change)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0],
               ["b", 2.0, 3.0, 1], ["a", 6.0, 7.0, 0]]
    selfs, calls = t.self_times()
    assert selfs == {"op": 5.0, "a": 4.0, "b": 1.0}
    assert calls == {"op": 1, "a": 2, "b": 1}
    assert t.roots() == [0, 0, 0, 0]


def test_missing_wrap_target_is_reported_not_fatal():
    t = tracing.Tracer()
    assert not t.wrap("repro.no_such_module", "f", "x")
    assert not t.wrap("repro.analysis.schedulability", "no_such_attr", "x")
    assert t.missing == ["repro.no_such_module.f",
                         "repro.analysis.schedulability.no_such_attr"]
