"""Tests for the determinism-provenance layer: R013–R015.

Same conventions as ``test_staticcheck.py``: fixture trees
mimic the ``src/repro`` package layout, true positives pin exact
``file:line`` anchors *and* full origin → sink witness chains (at least
two ``->`` hops), suppression is asserted to work at the origin and
only at the origin, and the final gates run the real tree — which must
stay clean under all three rules.

The pass-isolation tests pin satellite behaviour: ``--select R013``
builds the seed-taint pass and nothing else, and ``--select R015``
never builds a ProjectIndex at all.  The hypothesis test pins that the R014 binding classifier is a
monotone fixpoint: permuting a function's assignment statements never
changes the classification.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.staticcheck import run_checks
from repro.staticcheck.engine import Checker
from repro.staticcheck.ordering import classify_source_bindings
from repro.staticcheck.passes import built_passes

from test_staticcheck import REPO_SRC, anchors, hits, make_tree


def chains(result, rule_id):
    """Every witness chain, as its arrow-hop count."""
    return [v.message.count("->") for v in hits(result, rule_id)]


# ---------------------------------------------------------------------------
# R013 — seed provenance


class TestSeedProvenance:
    def test_no_arg_rng_is_ambient(self, tmp_path):
        root = make_tree(tmp_path, {"sim/noise.py": (
            "import random\n"
            "def jitter():\n"
            "    rng = random.Random()\n"
            "    return rng.random()\n"
        )})
        result = run_checks(root, select=["R013"])
        assert anchors(result, "R013") == [("sim/noise.py", 3)]
        message = hits(result, "R013")[0].message
        assert "constructed with no seed" in message
        assert message.count("->") >= 2

    def test_time_seed_flagged_at_entropy_origin(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/gen.py": (
            "import random\n"
            "import time\n"
            "def make():\n"
            "    seed = int(time.time())\n"
            "    return random.Random(seed)\n"
        )})
        result = run_checks(root, select=["R013"])
        # Anchored at the entropy origin (line 4), not the RNG sink.
        assert anchors(result, "R013") == [("campaign/gen.py", 4)]
        message = hits(result, "R013")[0].message
        assert "time.time()" in message
        assert "bound to 'seed'" in message
        assert "seeds random.Random() at campaign/gen.py:5" in message
        assert message.count("->") >= 2

    def test_interprocedural_param_taint_crosses_modules(self, tmp_path):
        root = make_tree(tmp_path, {
            "campaign/util.py": (
                "import random\n"
                "def make_rng(seed):\n"
                "    return random.Random(seed)\n"
            ),
            "campaign/go.py": (
                "import time\n"
                "from repro.campaign.util import make_rng\n"
                "def go():\n"
                "    return make_rng(time.time_ns())\n"
            ),
        })
        result = run_checks(root, select=["R013"])
        # Origin is the caller's entropy call — in the *other* module.
        assert anchors(result, "R013") == [("campaign/go.py", 4)]
        message = hits(result, "R013")[0].message
        assert "time.time_ns()" in message
        assert "passed as parameter 'seed' of make_rng()" in message
        assert "seeds random.Random() at campaign/util.py:3" in message
        assert message.count("->") >= 2

    def test_return_flow_through_seed_helper(self, tmp_path):
        root = make_tree(tmp_path, {
            "workload/seedsrc.py": (
                "import time\n"
                "def fresh_seed():\n"
                "    return int(time.time() * 1000)\n"
            ),
            "workload/mk.py": (
                "import random\n"
                "from repro.workload.seedsrc import fresh_seed\n"
                "def build():\n"
                "    return random.Random(fresh_seed())\n"
            ),
        })
        result = run_checks(root, select=["R013"])
        assert anchors(result, "R013") == [("workload/seedsrc.py", 3)]
        message = hits(result, "R013")[0].message
        assert "returned by fresh_seed()" in message
        assert message.count("->") >= 2

    def test_campaign_seed_arithmetic_is_silent(self, tmp_path):
        # The PR-5 seed split: parameters with no witnessed entropy stay
        # quiet (unknown provenance is silence, not a finding).
        root = make_tree(tmp_path, {"campaign/okgen.py": (
            "import random\n"
            "def shard_rng(seed, k, r):\n"
            "    return random.Random(seed + 7919 * k + 104729 * r)\n"
            "def fixed_rng():\n"
            "    return random.Random(42)\n"
        )})
        assert run_checks(root, select=["R013"]).ok

    def test_out_of_scope_packages_are_silent(self, tmp_path):
        root = make_tree(tmp_path, {"analysis/demo.py": (
            "import random\n"
            "def sample():\n"
            "    return random.Random().random()\n"
        )})
        assert run_checks(root, select=["R013"]).ok

    def test_pragma_suppresses_at_origin_not_at_sink(self, tmp_path):
        source = (
            "import random\n"
            "import time\n"
            "def make():\n"
            "    seed = int(time.time())\n"
            "    return random.Random(seed)\n"
        )
        sink_pragma = source.replace(
            "    return random.Random(seed)\n",
            "    return random.Random(seed)  # staticcheck: allow[R013]\n")
        root = make_tree(tmp_path / "sink", {"campaign/gen.py": sink_pragma})
        assert not run_checks(root, select=["R013"]).ok

        origin_pragma = source.replace(
            "    seed = int(time.time())\n",
            "    seed = int(time.time())  # staticcheck: allow[R013]\n")
        root = make_tree(tmp_path / "origin",
                         {"campaign/gen.py": origin_pragma})
        assert run_checks(root, select=["R013"]).ok


# ---------------------------------------------------------------------------
# R014 — ordering soundness


class TestOrderingSoundness:
    def test_set_literal_append_flagged_at_construction(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/agg.py": (
            "def rows():\n"
            "    ids = {'b', 'a'}\n"
            "    out = []\n"
            "    for i in ids:\n"
            "        out.append(i)\n"
            "    return out\n"
        )})
        result = run_checks(root, select=["R014"])
        assert anchors(result, "R014") == [("campaign/agg.py", 2)]
        message = hits(result, "R014")[0].message
        assert "set literal" in message
        assert "iterated at line 4" in message
        assert "appends to an ordered sequence at line 5" in message
        assert message.count("->") >= 2

    def test_listdir_yield_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"workload/scan.py": (
            "import os\n"
            "def names(d):\n"
            "    for n in os.listdir(d):\n"
            "        yield n\n"
        )})
        result = run_checks(root, select=["R014"])
        assert anchors(result, "R014") == [("workload/scan.py", 3)]
        message = hits(result, "R014")[0].message
        assert "filesystem order" in message
        assert "yields in iteration order" in message
        assert message.count("->") >= 2

    def test_wait_done_set_callback_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/pool.py": (
            "from concurrent.futures import wait\n"
            "def drain(pending, on_done):\n"
            "    done, rest = wait(pending)\n"
            "    for f in done:\n"
            "        on_done(f)\n"
        )})
        result = run_checks(root, select=["R014"])
        assert anchors(result, "R014") == [("campaign/pool.py", 3)]
        message = hits(result, "R014")[0].message
        assert "concurrent.futures.wait" in message
        assert "callback on_done()" in message
        assert message.count("->") >= 2

    def test_thread_queue_drain_flagged_at_get(self, tmp_path):
        root = make_tree(tmp_path, {"distrib/hub.py": (
            "import queue\n"
            "class Hub:\n"
            "    def __init__(self):\n"
            "        self._q = queue.Queue()\n"
            "    def run(self, handle):\n"
            "        ev = self._q.get()\n"
            "        handle(ev)\n"
        )})
        result = run_checks(root, select=["R014"])
        assert anchors(result, "R014") == [("distrib/hub.py", 6)]
        message = hits(result, "R014")[0].message
        assert "thread-scheduling order" in message
        assert "'ev' passed to handle()" in message
        assert message.count("->") >= 2

    def test_thread_mutated_dict_attribute_iteration_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"service/reg.py": (
            "import threading\n"
            "class Reg:\n"
            "    def __init__(self):\n"
            "        self._m = {}\n"
            "        self.out = []\n"
            "    def put(self, k):\n"
            "        self._m[k] = 1\n"
            "    def start(self):\n"
            "        threading.Thread(target=self.put, args=('x',)).start()\n"
            "    def scan(self):\n"
            "        for k, v in self._m.items():\n"
            "            self.out.append(k)\n"
        )})
        result = run_checks(root, select=["R014"])
        assert anchors(result, "R014") == [("service/reg.py", 11)]
        message = hits(result, "R014")[0].message
        assert "inserted into by service.reg.Reg.put on a worker thread" \
            in message
        assert message.count("->") >= 2

    def test_sorted_launders_and_insensitive_sinks_are_silent(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/ok.py": (
            "def a(items):\n"
            "    out = []\n"
            "    for i in sorted(set(items)):\n"   # laundered
            "        out.append(i)\n"
            "    return out\n"
            "def b(items):\n"
            "    seen = set()\n"
            "    n = 0\n"
            "    for i in {x for x in items}:\n"   # insensitive sinks only
            "        seen.add(i)\n"
            "        n += 1\n"
            "    return seen, n\n"
        )})
        assert run_checks(root, select=["R014"]).ok

    def test_asyncio_queue_is_not_a_scheduling_queue(self, tmp_path):
        root = make_tree(tmp_path, {"service/loop.py": (
            "import asyncio\n"
            "class L:\n"
            "    def __init__(self):\n"
            "        self._q = asyncio.Queue()\n"
            "    def run(self, handle):\n"
            "        ev = self._q.get_nowait()\n"
            "        handle(ev)\n"
        )})
        assert run_checks(root, select=["R014"]).ok

    def test_pragma_suppresses_at_origin_not_at_sink(self, tmp_path):
        source = (
            "def rows():\n"
            "    ids = {'b', 'a'}\n"
            "    out = []\n"
            "    for i in ids:\n"
            "        out.append(i)\n"
            "    return out\n"
        )
        sink_pragma = source.replace(
            "        out.append(i)\n",
            "        out.append(i)  # staticcheck: allow[R014]\n")
        root = make_tree(tmp_path / "sink", {"campaign/agg.py": sink_pragma})
        assert not run_checks(root, select=["R014"]).ok

        origin_pragma = source.replace(
            "    ids = {'b', 'a'}\n",
            "    ids = {'b', 'a'}  # staticcheck: allow[R014]\n")
        root = make_tree(tmp_path / "origin",
                         {"campaign/agg.py": origin_pragma})
        assert run_checks(root, select=["R014"]).ok


#: Assignment statements whose classification must survive any
#: permutation (the classifier is a monotone fixpoint).
_REORDER_LINES = (
    "a = {1, 2}",
    "b = sorted(a)",
    "c = set(d)",
    "e = os.listdir(d)",
    "g = list(e)",
    "h = [1, 2]",
)

_REORDER_EXPECTED = {
    "a": "set literal (hash-ordered iteration)",
    "c": "set() construction (hash-ordered iteration)",
    "e": "os.listdir returns entries in filesystem order",
    "g": "os.listdir returns entries in filesystem order",
}


class TestClassifierStability:
    @settings(max_examples=60, deadline=None)
    @given(st.permutations(_REORDER_LINES))
    def test_stable_under_statement_reordering(self, perm):
        source = "import os\ndef f(d):\n" + \
            "".join(f"    {line}\n" for line in perm)
        assert classify_source_bindings(source, "f") == _REORDER_EXPECTED


# ---------------------------------------------------------------------------
# R015 — canonical serialization


class TestCanonicalSerialization:
    def test_persisted_dumps_without_sort_keys_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/store.py": (
            "import json\n"
            "def save(path, payload, atomic_write_text):\n"
            "    atomic_write_text(path, json.dumps(payload, indent=2)"
            " + '\\n')\n"
        )})
        result = run_checks(root, select=["R015"])
        assert anchors(result, "R015") == [("campaign/store.py", 3)]
        message = hits(result, "R015")[0].message
        assert "missing sort_keys=True" in message
        assert "persisted via atomic_write_text()" in message
        assert message.count("->") >= 2

    def test_wire_encode_without_sort_keys_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"service/enc.py": (
            "import json\n"
            "def frame(obj):\n"
            "    return json.dumps(obj, separators=(',', ':'))"
            ".encode('utf-8')\n"
        )})
        result = run_checks(root, select=["R015"])
        assert anchors(result, "R015") == [("service/enc.py", 3)]
        message = hits(result, "R015")[0].message
        assert "missing sort_keys=True" in message
        assert "encoded to wire/digest bytes" in message
        assert message.count("->") >= 2

    def test_name_indirection_to_write_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"analysis/out.py": (
            "import json\n"
            "def dump_rows(fh, rows):\n"
            "    text = json.dumps(rows)\n"
            "    fh.write(text)\n"
        )})
        result = run_checks(root, select=["R015"])
        assert anchors(result, "R015") == [("analysis/out.py", 3)]
        message = hits(result, "R015")[0].message
        assert "missing sort_keys=True and pinned separators/indent" \
            in message
        assert "persisted via .write() at line 4" in message
        assert message.count("->") >= 2

    def test_json_dump_to_stream_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"workload/wr.py": (
            "import json\n"
            "def save(fh, payload):\n"
            "    json.dump(payload, fh)\n"
        )})
        result = run_checks(root, select=["R015"])
        assert anchors(result, "R015") == [("workload/wr.py", 3)]
        assert chains(result, "R015")[0] >= 2

    def test_canonical_and_unsunk_dumps_are_silent(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/ok.py": (
            "import json\n"
            "def save(path, payload, atomic_write_text):\n"
            "    atomic_write_text(path, json.dumps(\n"
            "        payload, indent=2, sort_keys=True) + '\\n')\n"
            "def render(payload):\n"
            "    return json.dumps(payload)\n"      # returned: not a sink
            "def fwd(payload, kw, atomic_write_text, path):\n"
            "    atomic_write_text(path, json.dumps(payload, **kw))\n"
        )})
        assert run_checks(root, select=["R015"]).ok

    def test_out_of_scope_package_is_silent(self, tmp_path):
        root = make_tree(tmp_path, {"staticcheck/wr.py": (
            "import json\n"
            "def save(fh, payload):\n"
            "    json.dump(payload, fh)\n"
        )})
        assert run_checks(root, select=["R015"]).ok

    def test_pragma_suppresses_at_origin_not_at_sink(self, tmp_path):
        source = (
            "import json\n"
            "def dump_rows(fh, rows):\n"
            "    text = json.dumps(rows)\n"
            "    fh.write(text)\n"
        )
        sink_pragma = source.replace(
            "    fh.write(text)\n",
            "    fh.write(text)  # staticcheck: allow[R015]\n")
        root = make_tree(tmp_path / "sink", {"analysis/out.py": sink_pragma})
        assert not run_checks(root, select=["R015"]).ok

        origin_pragma = source.replace(
            "    text = json.dumps(rows)\n",
            "    text = json.dumps(rows)  # staticcheck: allow[R015]\n")
        root = make_tree(tmp_path / "origin",
                         {"analysis/out.py": origin_pragma})
        assert run_checks(root, select=["R015"]).ok


# ---------------------------------------------------------------------------
# Pass isolation (rule -> dependency declarations)


class TestPassIsolation:
    FIXTURE = {"campaign/a.py": (
        "import random\n"
        "def mk(seed):\n"
        "    return random.Random(seed)\n"
    )}

    def test_select_r013_builds_only_the_seed_pass(self, tmp_path):
        checker = Checker(make_tree(tmp_path, self.FIXTURE),
                          select=["R013"])
        assert checker.check().ok
        assert built_passes(checker.project) == ["seeds"]

    def test_select_r014_builds_ordering_and_domains(self, tmp_path):
        checker = Checker(make_tree(tmp_path, self.FIXTURE),
                          select=["R014"])
        assert checker.check().ok
        assert built_passes(checker.project) == ["domains", "ordering"]

    def test_select_r015_never_builds_a_project_index(self, tmp_path):
        checker = Checker(make_tree(tmp_path, self.FIXTURE),
                          select=["R015"])
        assert checker.check().ok
        assert checker.project is None

    def test_unregistered_pass_fails_loudly(self, tmp_path):
        from repro.staticcheck.callgraph import ProjectIndex
        from repro.staticcheck.engine import load_module
        from repro.staticcheck.passes import project_pass

        root = make_tree(tmp_path, self.FIXTURE)
        module, err = load_module(root / "campaign" / "a.py", root)
        assert err is None
        project = ProjectIndex([module])
        with pytest.raises(KeyError):
            project_pass(project, "no-such-pass")


# ---------------------------------------------------------------------------
# The repository gate


class TestRealTree:
    def test_real_tree_clean_under_provenance_rules(self):
        result = run_checks(REPO_SRC, select=["R013", "R014", "R015"])
        assert result.ok, "\n".join(v.message for v in result.violations)

    def test_new_rules_are_registered_with_declared_needs(self):
        from repro.staticcheck.rules import RULES

        by_id = {r.rule_id: r for r in RULES}
        assert by_id["R013"].needs == ("seeds",)
        assert by_id["R013"].uses_project
        assert by_id["R014"].needs == ("ordering", "domains")
        assert by_id["R014"].uses_project
        assert not by_id["R015"].uses_project
