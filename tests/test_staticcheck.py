"""Tests for :mod:`repro.staticcheck` — the AST invariant checker.

Each rule gets fixture snippets written into a tmp tree that mimics the
``src/repro`` package layout (rule scopes key off the top-level package
directory), and the assertions pin down exact rule ids and ``file:line``
anchors so a rule that drifts to a different node is caught, not just a
rule that stops firing.  The last test runs the real tree and is the
repository's own gate: ``src/repro`` must stay clean.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import run_checks
from repro.staticcheck.cli import main as staticcheck_main
from repro.staticcheck.engine import Checker

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_tree(root, files):
    """Write ``{relpath: source}`` under ``root`` and return ``root``."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def hits(result, rule_id):
    return [v for v in result.violations if v.rule_id == rule_id]


def anchors(result, rule_id):
    return [(v.path, v.line) for v in hits(result, rule_id)]


# ---------------------------------------------------------------------------
# R001 — exactness


class TestExactness:
    def test_flags_float_literal_call_and_division(self, tmp_path):
        root = make_tree(tmp_path, {"core/bad.py": (
            "X = 0.5\n"                    # line 1: float literal
            "Y = float('1')\n"             # line 2: float() conversion
            "def f(a, b):\n"
            "    return a / b\n"           # line 4: true division
        )})
        result = run_checks(root, select=["R001"])
        assert anchors(result, "R001") == [
            ("core/bad.py", 1), ("core/bad.py", 2), ("core/bad.py", 4)]
        messages = [v.message for v in hits(result, "R001")]
        assert "float literal" in messages[0]
        assert "float() conversion" in messages[1]
        assert "true division" in messages[2]

    def test_vector_kernel_is_in_scope_but_other_sim_files_are_not(
            self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/vector.py": "SPEEDUP = 2.5\n",
            "sim/quantum.py": "RATIO = 0.5\n",      # dispatcher: not a kernel
            "sim/export.py": "SCALE = 2.5\n",       # export layer: floats fine
            "analysis/plots.py": "ALPHA = 0.3\n",   # reporting layer too
        })
        result = run_checks(root, select=["R001"])
        assert anchors(result, "R001") == [("sim/vector.py", 1)]

    def test_floor_division_and_fraction_are_clean(self, tmp_path):
        root = make_tree(tmp_path, {"core/ok.py": (
            "from fractions import Fraction\n"
            "def lag(a, b):\n"
            "    return Fraction(a, b) - a // b\n"
        )})
        assert run_checks(root, select=["R001"]).ok

    def test_vector_kernel_numpy_is_gated_to_integer_dtypes(self, tmp_path):
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "A = np.zeros(4, dtype=np.float64)\n"   # line 2: float dtype
            "B = np.arange(8).astype('float32')\n"  # line 3: astype to float
            "C = np.true_divide(A, 2)\n"            # line 4: true division fn
            "D = np.empty(2, dtype=float)\n"        # line 5: builtin float
            "def f(x, y):\n"
            "    return x / y\n"                    # line 7: base check
        )})
        result = run_checks(root, select=["R001"])
        assert anchors(result, "R001") == [
            ("sim/vector.py", 2), ("sim/vector.py", 3),
            ("sim/vector.py", 4), ("sim/vector.py", 5),
            ("sim/vector.py", 7)]
        messages = [v.message for v in hits(result, "R001")]
        assert "np.float64" in messages[0]
        assert "astype()" in messages[1]
        assert "true division" in messages[2]
        assert "dtype=" in messages[3]

    def test_vector_kernel_integer_dtypes_are_clean(self, tmp_path):
        # The shapes the real kernel uses: int64 columns, an int32 sort
        # key, bool masks, floor division.  None may trip the gate.
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "A = np.zeros(4, dtype=np.int64)\n"
            "B = np.arange(8).astype(np.int32)\n"
            "M = np.empty(3, dtype=bool)\n"
            "C = np.full(3, -1, dtype='int64')\n"
            "def f(x, y):\n"
            "    return x // y\n"
        )})
        assert run_checks(root, select=["R001"]).ok

    def test_numpy_gate_is_kernel_only(self, tmp_path):
        # Float dtypes are fine outside the kernel scope — analysis and
        # export code does real arithmetic on metrics.
        root = make_tree(tmp_path, {"analysis/metrics.py": (
            "import numpy as np\n"
            "A = np.zeros(4, dtype=np.float64)\n"
        )})
        assert run_checks(root, select=["R001"]).ok


# ---------------------------------------------------------------------------
# R002 — determinism


class TestDeterminism:
    def test_flags_global_rng_clock_and_environ(self, tmp_path):
        root = make_tree(tmp_path, {"sim/bad.py": (
            "import random\n"
            "import time\n"
            "import os\n"
            "def jitter():\n"
            "    t = time.time()\n"          # line 5: wall clock
            "    if os.getenv('X'):\n"       # line 6: env read
            "        return random.random()\n"  # line 7: global RNG
            "    return t\n"
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [
            ("sim/bad.py", 5), ("sim/bad.py", 6), ("sim/bad.py", 7)]

    def test_from_imports_are_flagged_at_the_import(self, tmp_path):
        root = make_tree(tmp_path, {"core/bad.py": (
            "from random import shuffle\n"
            "from os import environ\n"
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [
            ("core/bad.py", 1), ("core/bad.py", 2)]

    def test_seeded_numpy_generator_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"core/ok.py": (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )})
        assert run_checks(root, select=["R002"]).ok

    def test_unseeded_numpy_constructors_are_flagged(self, tmp_path):
        # No seed, or a literal None, seeds from OS entropy — in every
        # spelling of the constructor.
        root = make_tree(tmp_path, {"campaign/bad.py": (
            "import numpy as np\n"
            "from numpy.random import SeedSequence as SS\n"
            "def sample():\n"
            "    a = np.random.default_rng()\n"          # line 4: no arg
            "    b = np.random.default_rng(None)\n"      # line 5: None
            "    c = SS(entropy=None)\n"                 # line 6
            "    d = np.random.PCG64()\n"                # line 7
            "    return a, b, c, d\n"
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [
            ("campaign/bad.py", 4), ("campaign/bad.py", 5),
            ("campaign/bad.py", 6), ("campaign/bad.py", 7)]
        assert all("without a seed" in v.message
                   for v in hits(result, "R002"))

    def test_seeded_and_forwarded_constructors_are_clean(self, tmp_path):
        # A passed seed is a runtime question (the two-hash-seed tests
        # compare real output); forwarded **kwargs hide the seed.
        root = make_tree(tmp_path, {"campaign/ok.py": (
            "import numpy as np\n"
            "from numpy.random import default_rng\n"
            "def sample(seed, **kw):\n"
            "    return (default_rng(seed), np.random.PCG64(seed=seed),\n"
            "            np.random.Philox(key=seed),\n"
            "            np.random.default_rng(**kw))\n"
        )})
        assert run_checks(root, select=["R002"]).ok

    def test_workload_package_is_in_scope(self, tmp_path):
        # The task-set generator draws every Fig. 3/4 set.
        root = make_tree(tmp_path, {"workload/generator.py": (
            "import numpy as np\n"
            "class Gen:\n"
            "    def __init__(self):\n"
            "        self.rng = np.random.default_rng()\n"   # line 4
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [("workload/generator.py", 4)]

    def test_legacy_numpy_global_rng_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"core/bad.py": (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.rand()\n"
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [("core/bad.py", 3)]

    def test_datetime_class_from_import_clock_reads_are_flagged(self, tmp_path):
        # ``from datetime import datetime`` binds the *class*, not the
        # module — the alias resolution must still catch ``.now()``.
        root = make_tree(tmp_path, {"core/bad.py": (
            "from datetime import datetime\n"
            "from datetime import date as d\n"
            "def stamp():\n"
            "    return datetime.now(), d.today()\n"   # line 4: two reads
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [
            ("core/bad.py", 4), ("core/bad.py", 4)]
        messages = [v.message for v in hits(result, "R002")]
        assert any("datetime.now" in m for m in messages)
        assert any("d.today" in m for m in messages)

    def test_datetime_class_import_without_clock_read_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"core/ok.py": (
            "from datetime import datetime, timedelta\n"
            "def parse(s):\n"
            "    return datetime.fromisoformat(s) + timedelta(days=1)\n"
        )})
        assert run_checks(root, select=["R002"]).ok

    def test_out_of_scope_packages_may_read_the_environment(self, tmp_path):
        # The whole util package (and the app shell) sits outside the
        # R002 scope.
        root = make_tree(tmp_path, {"util/settings.py": (
            "import os\n"
            "def verbose():\n"
            "    return os.getenv('VERBOSE') is None\n"
        )})
        assert run_checks(root, select=["R002"]).ok

    def test_campaign_package_is_in_scope(self, tmp_path):
        # The campaign engine plans shards and seeds workers; a wall
        # clock or global RNG there breaks resume byte-identity.
        root = make_tree(tmp_path, {"campaign/spec.py": (
            "import time\n"
            "import random\n"
            "def plan():\n"
            "    random.seed(time.time())\n"   # line 4: RNG + clock
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [
            ("campaign/spec.py", 4), ("campaign/spec.py", 4)]

    def test_campaign_runner_may_read_clocks_but_not_rngs(self, tmp_path):
        # runner.py is the one campaign file allowed to read monotonic
        # clocks (timeouts, backoff, progress) — shard *content* never
        # depends on them.  RNG and environment checks still apply.
        root = make_tree(tmp_path, {"campaign/runner.py": (
            "import time\n"
            "import random\n"
            "def tick():\n"
            "    t = time.monotonic()\n"       # exempt: scheduling clock
            "    return t + random.random()\n"  # line 5: RNG still banned
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [("campaign/runner.py", 5)]

    def test_vector_kernel_is_in_determinism_scope(self, tmp_path):
        # The vector kernel shares the hyperperiod cache with the
        # fastpath: a clock or environment read there poisons replays in
        # *both* kernels, so sim/vector.py sits squarely in R002 scope.
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import time\n"
            "def chunk_deadline():\n"
            "    return time.monotonic()\n"        # line 3: wall clock
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [("sim/vector.py", 3)]

    def test_clock_exemption_is_per_file_not_per_package(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/checkpoint.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"          # line 3: not runner.py
        )})
        result = run_checks(root, select=["R002"])
        assert anchors(result, "R002") == [("campaign/checkpoint.py", 3)]


# ---------------------------------------------------------------------------
# R003 — layering


class TestLayering:
    def test_upward_relative_import_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "core/engine.py": "from ..sim.quantum import QuantumSimulator\n",
            "sim/quantum.py": "QuantumSimulator = object\n",
        })
        result = run_checks(root, select=["R003"])
        assert anchors(result, "R003") == [("core/engine.py", 1)]
        assert "upward import" in hits(result, "R003")[0].message

    def test_upward_absolute_import_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {
            "workload/gen.py": "from repro.analysis import tardiness\n",
        })
        result = run_checks(root, select=["R003"])
        assert anchors(result, "R003") == [("workload/gen.py", 1)]

    def test_downward_imports_are_clean(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/run.py": ("from ..core.task import PfairTask\n"
                           "from ..workload import generator\n"
                           "import repro.util.toggles\n"),
        })
        assert run_checks(root, select=["R003"]).ok

    def test_unmapped_package_forces_a_layering_decision(self, tmp_path):
        root = make_tree(tmp_path, {"newpkg/mod.py": "X = 1\n"})
        result = run_checks(root, select=["R003"])
        assert len(hits(result, "R003")) == 1
        assert "not in the R003 layer map" in hits(result, "R003")[0].message

    def test_sibling_cycle_is_detected(self, tmp_path):
        # overheads and partition share layer 3: neither direction is an
        # upward import, so only the finalize cycle pass can catch this.
        root = make_tree(tmp_path, {
            "overheads/a.py": "from repro.partition import bins\n",
            "partition/b.py": "from repro.overheads import model\n",
        })
        result = run_checks(root, select=["R003"])
        cycle = [v for v in hits(result, "R003")
                 if "package cycle" in v.message]
        assert len(cycle) == 1
        assert "overheads" in cycle[0].message
        assert "partition" in cycle[0].message

    def test_vector_kernel_is_in_the_layer_map(self, tmp_path):
        # sim/vector.py lives at the sim layer: core/workload imports are
        # fine, an analysis import is the upward reach R003 forbids.
        root = make_tree(tmp_path, {"sim/vector.py": (
            "from ..core.task import PfairTask\n"
            "from repro.analysis import tardiness\n"   # line 2: upward
        )})
        result = run_checks(root, select=["R003"])
        assert anchors(result, "R003") == [("sim/vector.py", 2)]

    def test_campaign_sits_between_analysis_and_service(self, tmp_path):
        # campaign (layer 7) may import analysis (6); service (8) may
        # import campaign.  Neither direction is an upward import.
        root = make_tree(tmp_path, {
            "campaign/sched.py": "from repro.analysis import experiments\n",
            "service/state.py": "from repro.campaign import batch_analyze\n",
        })
        assert run_checks(root, select=["R003"]).ok

    def test_campaign_importing_service_is_an_upward_import(self, tmp_path):
        root = make_tree(tmp_path, {
            "campaign/runner.py": "from repro.service import state\n",
        })
        result = run_checks(root, select=["R003"])
        assert anchors(result, "R003") == [("campaign/runner.py", 1)]
        assert "upward import" in hits(result, "R003")[0].message


# ---------------------------------------------------------------------------
# R005 — hygiene


class TestHygiene:
    def test_flags_mutable_default_bare_except_and_assert(self, tmp_path):
        root = make_tree(tmp_path, {"service/bad.py": (
            "def f(cache={}):\n"            # line 1 (default node on line 1)
            "    try:\n"
            "        return cache\n"
            "    except:\n"                 # line 4: bare except
            "        assert len(cache) > 0\n"  # line 5: control-flow assert
        )})
        result = run_checks(root, select=["R005"])
        assert anchors(result, "R005") == [
            ("service/bad.py", 1), ("service/bad.py", 4),
            ("service/bad.py", 5)]

    def test_mutable_constructor_default_is_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"core/bad.py": (
            "def f(*, acc=list()):\n"
            "    return acc\n"
        )})
        result = run_checks(root, select=["R005"])
        assert anchors(result, "R005") == [("core/bad.py", 1)]

    def test_narrowing_assert_is_allowed(self, tmp_path):
        root = make_tree(tmp_path, {"core/ok.py": (
            "def f(x):\n"
            "    assert x is not None\n"
            "    return x + 1\n"
        )})
        assert run_checks(root, select=["R005"]).ok


# ---------------------------------------------------------------------------
# Engine behaviour: pragmas, select/ignore, parse errors


class TestPragmas:
    def test_line_pragma_suppresses_exactly_that_line(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": (
            "X = 0.5  # staticcheck: allow[R001]\n"
            "Y = 0.5\n"
        )})
        result = run_checks(root, select=["R001"])
        assert anchors(result, "R001") == [("core/mod.py", 2)]
        assert result.suppressed == 1

    def test_file_pragma_suppresses_the_whole_file(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": (
            "# staticcheck: allow-file[R001]\n"
            "X = 0.5\n"
            "Y = 1.5\n"
        )})
        result = run_checks(root, select=["R001"])
        assert result.ok
        assert result.suppressed == 2

    def test_pragma_is_per_rule(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": (
            "def f(xs=[0.5]):  # staticcheck: allow[R005]\n"
            "    return xs\n"
        )})
        result = run_checks(root)
        # R005 is suppressed; the float literal inside still fires R001.
        assert [v.rule_id for v in result.violations] == ["R001"]

    def test_multiple_rules_in_one_pragma(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": (
            "import time\n"
            "def f():\n"
            "    return time.time() * 0.001  "
            "# staticcheck: allow[R001, R002]\n"
        )})
        assert run_checks(root, select=["R001", "R002"]).ok


class TestEngine:
    def test_select_and_ignore_filter_rules(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": (
            "X = 0.5\n"
            "def f(xs=[]):\n"
            "    return xs\n"
        )})
        assert {v.rule_id for v in run_checks(root).violations} == \
            {"R001", "R005"}
        assert {v.rule_id for v in
                run_checks(root, ignore=["R001"]).violations} == {"R005"}
        assert {v.rule_id for v in
                run_checks(root, select=["R001"]).violations} == {"R001"}

    def test_syntax_error_becomes_a_parse_violation(self, tmp_path):
        root = make_tree(tmp_path, {"core/broken.py": "def f(:\n"})
        result = run_checks(root)
        assert [v.rule_id for v in result.violations] == ["E000"]
        assert result.violations[0].path == "core/broken.py"

    def test_single_file_root_is_accepted(self, tmp_path):
        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        result = Checker(root / "core" / "mod.py", select=["R001"]).check()
        # Root collapses to the file's parent, so relpath is bare — and
        # package scoping no longer applies, which is fine for spot runs
        # of the scope-free rules.
        assert result.files_checked == 1


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        assert staticcheck_main([str(root), "--select", "R001"]) == 1
        assert staticcheck_main([str(root), "--select", "R002"]) == 0
        capsys.readouterr()

    def test_text_output_has_clickable_anchors(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        staticcheck_main([str(root), "--select", "R001"])
        out = capsys.readouterr().out
        assert "core/mod.py:1:" in out and "R001" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        staticcheck_main([str(root), "--select", "R001", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["violations"][0]["rule"] == "R001"
        assert report["violations"][0]["path"] == "core/mod.py"

    def test_every_run_is_a_hard_gate(self, tmp_path, capsys):
        # Pragmas are the only suppression: the retired baseline flags
        # are usage errors, and the JSON report has no baselined count.
        import json

        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        for flags in (["--baseline", "x"], ["--write-baseline"]):
            with pytest.raises(SystemExit) as exc:
                staticcheck_main([str(root), *flags])
            assert exc.value.code == 2
        capsys.readouterr()
        assert staticcheck_main([str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "baselined" not in report and report["ok"] is False

    def test_list_rules_names_every_rule(self, capsys):
        assert staticcheck_main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        # Retired ids (R004, R009–R015) are never reused.
        assert listed == ["R001", "R002", "R003", "R005", "R006", "R007",
                          "R008"]

    def test_unknown_rule_ids_are_usage_errors(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        for flag, ids in (("--select", "R004"), ("--select", "R009"),
                          ("--select", "R010"),
                          ("--select", "R011"), ("--select", "R012"),
                          ("--select", "R013"), ("--select", "R014"),
                          ("--select", "R015"),
                          ("--ignore", "R999"),
                          ("--select", "R001,R999")):
            with pytest.raises(SystemExit) as exc:
                staticcheck_main([str(root), flag, ids])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert flag in err and ids.split(",")[-1] in err

    @pytest.mark.parametrize("ids", ["R001, R005", " R001 ,R005,"])
    def test_rule_lists_parse_like_pragmas(self, tmp_path, capsys, ids):
        # Spaces around ids and a trailing comma are accepted, as in
        # ``# staticcheck: allow[R001, R005]``.
        import json

        root = make_tree(tmp_path, {
            "core/mod.py": "X = 0.5\n",
            "campaign/store.py": ("def load(rows=[]):\n"
                                  "    return rows\n"),
        })
        assert staticcheck_main([str(root), "--select", ids,
                                 "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in report["violations"]} == {"R001", "R005"}

    def test_empty_rule_list_is_a_usage_error(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"core/mod.py": "X = 0.5\n"})
        with pytest.raises(SystemExit) as exc:
            staticcheck_main([str(root), "--select", " , "])
        assert exc.value.code == 2
        assert "no rule ids" in capsys.readouterr().err

    def test_repro_lint_subcommand_forwards(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "R003" in capsys.readouterr().out

    def test_repro_lint_dispatches_through_argparse_too(self, capsys):
        # The pre-argparse intercept in repro.cli.main normally handles
        # ``lint``; the subparser must still carry a working ``fn``
        # default so programmatic build_parser() use is not a dead end.
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", str(REPO_SRC), "-q"])
        assert args.fn(args) == 0
        capsys.readouterr()

    def test_module_entry_point_is_stdlib_only(self, tmp_path):
        # CI and pre-commit run ``python -m repro.staticcheck`` before
        # any pip install: importing the repro package must not pull in
        # numpy.  Block numpy on sys.path and run the real gate.
        (tmp_path / "numpy.py").write_text(
            "raise ImportError('numpy deliberately blocked by "
            "test_module_entry_point_is_stdlib_only')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(REPO_SRC.parent)])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", str(REPO_SRC)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# The real tree: the repository's own gate


class TestRealTree:
    def test_src_repro_is_clean(self):
        result = run_checks(REPO_SRC)
        assert result.files_checked > 50
        assert result.violations == [], "\n".join(
            v.render() for v in result.violations)
