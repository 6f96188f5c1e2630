"""Tests for the staticcheck dataflow layer: intervals, R010–R012.

Fixture trees mimic the ``src/repro`` layout (the dataflow rules key off
canonical relpaths like ``sim/vector.py``).  Every rule gets at least
one seeded true positive whose message is asserted to carry a
multi-step ``->`` witness chain, plus the origin-anchoring contract:
pragmas and baselines suppress at the witness *origin* line, never at
the sink.
"""

import ast

from repro.staticcheck import run_checks
from repro.staticcheck.baseline import write_baseline
from repro.staticcheck.cli import main as staticcheck_main
from repro.staticcheck.intervals import (BOTTOM, TOP, Interval, bounded,
                                         const, refine_by_compare)
from repro.staticcheck.nptypes import infer_function

from test_staticcheck import REPO_SRC, anchors, hits, make_tree


# ---------------------------------------------------------------------------
# The interval domain


class TestIntervals:
    def test_lattice_basics(self):
        assert const(5).join(const(9)) == bounded(5, 9)
        assert bounded(0, 10).meet(bounded(5, 20)) == bounded(5, 10)
        assert bounded(5, 3).is_empty() and BOTTOM.is_empty()
        assert TOP.join(const(1)) == TOP
        assert bounded(0, 4).widen(bounded(0, 9)) == Interval(0, None)
        assert bounded(0, 9).widen(bounded(0, 4)) == bounded(0, 9)

    def test_arithmetic_transfer(self):
        assert bounded(1, 3).add(const(10)) == bounded(11, 13)
        assert bounded(1, 3).mul(bounded(2, 4)) == bounded(2, 12)
        assert bounded(4, 9).floordiv(const(2)) == bounded(2, 4)
        assert bounded(0, 100).mod(const(7)) == bounded(0, 6)
        assert bounded(0, 3).lshift(const(4)) == bounded(0, 48)
        assert bounded(8, 64).rshift(const(3)) == bounded(1, 8)

    def test_bitor_bound_is_next_power_of_two(self):
        # x in [0, 5], y in [0, 9]: x | y < 16 and >= max(x, y).
        assert bounded(0, 5).bitor(bounded(0, 9)) == bounded(0, 15)
        # Negative operands widen to TOP — never a wrong narrow bound.
        assert bounded(-1, 5).bitor(const(1)) == TOP

    def test_bit_length_monotone(self):
        assert bounded(1, 1000).bit_length() == bounded(1, 10)
        assert const(0).bit_length() == const(0)

    @staticmethod
    def _eval(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return const(node.value)
        return TOP

    def test_refine_by_chained_compare(self):
        test = ast.parse("0 <= x <= 100", mode="eval").body
        refined = refine_by_compare(test, self._eval)
        assert refined["x"][0] == bounded(0, 100)

    def test_negated_chain_refines_nothing(self):
        # `not (0 <= x <= C)` is a disjunction: no contiguous interval.
        test = ast.parse("0 <= x <= 100", mode="eval").body
        assert refine_by_compare(test, self._eval, negated=True) == {}

    def test_negated_single_compare_flips(self):
        test = ast.parse("x < 10", mode="eval").body
        refined = refine_by_compare(test, self._eval, negated=True)
        assert refined["x"][0] == Interval(10, None)


# ---------------------------------------------------------------------------
# R010 — vector narrow-key budget proof

GENERATOR_5000 = (
    "class TaskSetGenerator:\n"
    "    def __init__(self, max_period: int = 5000):\n"   # line 2: origin
    "        self.max_period = max_period\n"
)

VECTOR_LAYOUT = (
    "MAX_KEY_BITS = {bits}\n"
    "_PAD_KEY = 1 << MAX_KEY_BITS\n"
    "def _key_layout(tasks, horizon):\n"
    "    max_p = max(t.period for t in tasks)\n"
    "    max_ph = max(getattr(t, 'phase', 0) for t in tasks)\n"
    "    dbias = horizon + 2 * max_p + max_ph + 2\n"
    "    dbits = (2 * dbias).bit_length()\n"
    "    gdbits = (max_p + 2).bit_length()\n"
    "    rowbits = max(1, (len(tasks) - 1).bit_length())\n"
    "    return dbias, gdbits, rowbits, dbits + 1 + gdbits + rowbits\n"
    "class VectorPD2Simulator:\n"
    "    def supports(self, tasks, horizon):\n"
    "        return _key_layout(tasks, horizon)[3] <= MAX_KEY_BITS\n"
)


class TestVectorFloor:
    def test_budget_proven_under_generator_defaults(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/vector.py": VECTOR_LAYOUT.format(bits=62),
            "workload/generator.py": GENERATOR_5000,
        })
        assert run_checks(root, select=["R010"]).ok

    def test_shrunk_budget_fires_at_generator_default(self, tmp_path):
        root = make_tree(tmp_path, {
            "sim/vector.py": VECTOR_LAYOUT.format(bits=16),
            "workload/generator.py": GENERATOR_5000,
        })
        result = run_checks(root, select=["R010"])
        assert anchors(result, "R010") == [("workload/generator.py", 2)]
        message = hits(result, "R010")[0].message
        assert "_key_layout" in message
        assert "MAX_KEY_BITS=16" in message
        assert "supports()" in message
        assert message.count("->") >= 3

    def test_pad_sentinel_mismatch_fires(self, tmp_path):
        bad = VECTOR_LAYOUT.format(bits=62).replace(
            "_PAD_KEY = 1 << MAX_KEY_BITS",
            "_PAD_KEY = 1 << (MAX_KEY_BITS - 1)")
        root = make_tree(tmp_path, {
            "sim/vector.py": bad,
            "workload/generator.py": GENERATOR_5000,
        })
        result = run_checks(root, select=["R010"])
        assert anchors(result, "R010") == [("sim/vector.py", 2)]
        assert "_PAD_KEY" in hits(result, "R010")[0].message

    def test_missing_supports_gate_fires(self, tmp_path):
        gateless = VECTOR_LAYOUT.format(bits=62).replace(
            "return _key_layout(tasks, horizon)[3] <= MAX_KEY_BITS",
            "return True")
        root = make_tree(tmp_path, {
            "sim/vector.py": gateless,
            "workload/generator.py": GENERATOR_5000,
        })
        result = run_checks(root, select=["R010"])
        assert any("supports() no longer gates" in v.message
                   for v in hits(result, "R010"))

    def test_pragma_suppresses_at_origin_not_sink(self, tmp_path):
        # Pragma on the sink (the layout's bit total): the finding is
        # anchored at the generator default, so it must NOT be
        # suppressed there...
        shrunk = VECTOR_LAYOUT.format(bits=16)
        sink_pragma = shrunk.replace(
            "dbits + 1 + gdbits + rowbits\n",
            "dbits + 1 + gdbits + rowbits  # staticcheck: ignore[R010]\n")
        root = make_tree(tmp_path / "a", {
            "sim/vector.py": sink_pragma,
            "workload/generator.py": GENERATOR_5000,
        })
        assert not run_checks(root, select=["R010"]).ok
        # ...while the same pragma on the origin line suppresses it.
        origin_pragma = GENERATOR_5000.replace(
            "max_period: int = 5000):\n",
            "max_period: int = 5000):  # staticcheck: ignore[R010]\n")
        root2 = make_tree(tmp_path / "b", {
            "sim/vector.py": shrunk,
            "workload/generator.py": origin_pragma,
        })
        result = run_checks(root2, select=["R010"])
        assert result.ok and result.suppressed == 1

    def test_baseline_suppresses_dataflow_finding(self, tmp_path):
        root = make_tree(tmp_path / "pkg", {
            "sim/vector.py": VECTOR_LAYOUT.format(bits=16),
            "workload/generator.py": GENERATOR_5000,
        })
        baseline = tmp_path / "baseline.json"
        result = run_checks(root, select=["R010"])
        assert not result.ok
        write_baseline(baseline, result.violations)
        code = staticcheck_main([str(root), "--select", "R010",
                                 "--baseline", str(baseline), "-q"])
        assert code == 0


# ---------------------------------------------------------------------------
# R011 — numpy dtype soundness


class TestNumpyDtypes:
    def test_seeded_float_promotion_and_mixed_width_key(self, tmp_path):
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "def build(n):\n"
            "    acc = np.zeros(n)\n"                     # line 3
            "    a = np.arange(n, dtype=np.int32)\n"
            "    b = np.arange(n, dtype=np.int64)\n"
            "    order = np.argsort(a + b)\n"             # line 6
            "    return acc, order\n"
        )})
        result = run_checks(root, select=["R011"])
        assert anchors(result, "R011") == [
            ("sim/vector.py", 3), ("sim/vector.py", 6)]
        zeros_msg, mix_msg = [v.message for v in hits(result, "R011")]
        assert "float64" in zeros_msg
        mix = mix_msg
        assert "int32" in mix and "int64" in mix
        assert "assigned line 4" in mix and "assigned line 5" in mix
        assert mix.count("->") >= 2               # witness chain

    def test_uint64_signed_comparison_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "def f(n):\n"
            "    u = np.zeros(n, dtype=np.uint64)\n"
            "    s = np.zeros(n, dtype=np.int64)\n"
            "    return u < s\n"
        )})
        result = run_checks(root, select=["R011"])
        assert anchors(result, "R011") == [("sim/vector.py", 5)]
        assert "float64" in hits(result, "R011")[0].message

    def test_true_division_of_int_array_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "def f(n):\n"
            "    a = np.arange(n, dtype=np.int64)\n"
            "    return a / 2\n"
        )})
        result = run_checks(root, select=["R011"])
        assert anchors(result, "R011") == [("sim/vector.py", 4)]

    def test_explicit_astype_narrowing_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "def f(s_arr, cont):\n"
            "    a = np.arange(8, dtype=np.int64)\n"
            "    b = np.zeros(8, dtype=np.int64)\n"
            "    return np.argsort((a + b).astype(np.int32))\n"
        )})
        assert run_checks(root, select=["R011"]).ok

    def test_attr_dtypes_cross_method(self, tmp_path):
        # __init__ creates an int64 column; a later method mixing it
        # with int32 inside a sort key is still caught.
        root = make_tree(tmp_path, {"sim/vector.py": (
            "import numpy as np\n"
            "class K:\n"
            "    def __init__(self, n):\n"
            "        self._col = np.zeros(n, dtype=np.int64)\n"
            "    def order(self, w32):\n"
            "        w = np.arange(3, dtype=np.int32)\n"
            "        return np.argsort(w + self._col)\n"   # line 7
        )})
        result = run_checks(root, select=["R011"])
        assert anchors(result, "R011") == [("sim/vector.py", 7)]

    def test_out_of_scope_files_ignored(self, tmp_path):
        root = make_tree(tmp_path, {"analysis/plots.py": (
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.zeros(n)\n"     # fine outside the kernels
        )})
        assert run_checks(root, select=["R011"]).ok

    def test_infer_function_probe(self):
        func = ast.parse(
            "def f(n):\n"
            "    a = np.arange(n, dtype=np.int64)\n"
            "    q, j = np.divmod(a, 7)\n"
            "    u, c = np.unique(a, return_counts=True)\n"
            "    s = int(a.max())\n"
        ).body[0]
        env, findings = infer_function(func, {"np"})
        assert env["a"][0] == "int64"
        assert env["q"][0] == "int64" and env["j"][0] == "int64"
        assert env["u"][0] == "int64" and env["c"][0] == "int64"
        assert env["s"][0] == "pyint"
        assert findings == []

    def test_real_kernels_are_dtype_sound(self):
        assert run_checks(REPO_SRC, select=["R011"]).ok


# ---------------------------------------------------------------------------
# R012 — wire-protocol conformance


WIRE_PROTOCOL = (
    'VERBS = ("ping", "stats", "drain")\n'
    "def parse_request(obj, verbs=VERBS):\n"
    "    return obj['verb']\n"
)

WIRE_SERVER = (
    "from .protocol import parse_request\n"
    "def handle(request):\n"
    "    verb = parse_request(request)\n"
    '    if verb == "ping":\n'
    "        return {}\n"
    '    if verb == "stats":\n'
    "        return {}\n"
    "    raise ValueError(verb)\n"
)


class TestWireConformance:
    def test_seeded_unhandled_verb(self, tmp_path):
        root = make_tree(tmp_path, {
            "service/protocol.py": WIRE_PROTOCOL,
            "service/server.py": WIRE_SERVER,
        })
        result = run_checks(root, select=["R012"])
        assert anchors(result, "R012") == [("service/protocol.py", 1)]
        message = hits(result, "R012")[0].message
        assert "'drain'" in message
        assert "service/server.py:3" in message   # the parse_request site
        assert message.count("->") >= 2

    def test_all_verbs_handled_is_clean(self, tmp_path):
        handled = WIRE_SERVER.replace(
            "    raise ValueError(verb)\n",
            '    if verb == "drain":\n        return {}\n'
            "    raise ValueError(verb)\n")
        root = make_tree(tmp_path, {
            "service/protocol.py": WIRE_PROTOCOL,
            "service/server.py": handled,
        })
        assert run_checks(root, select=["R012"]).ok

    def test_phantom_handler_flagged(self, tmp_path):
        phantom = WIRE_SERVER.replace(
            "    raise ValueError(verb)\n",
            '    if verb == "drain":\n        return {}\n'
            '    if verb == "reboot":\n        return {}\n'
            "    raise ValueError(verb)\n")
        root = make_tree(tmp_path, {
            "service/protocol.py": WIRE_PROTOCOL,
            "service/server.py": phantom,
        })
        result = run_checks(root, select=["R012"])
        assert anchors(result, "R012") == [("service/server.py", 10)]
        assert "phantom" in hits(result, "R012")[0].message

    def test_emitted_verb_must_be_registered(self, tmp_path):
        handled = WIRE_SERVER.replace(
            "    raise ValueError(verb)\n",
            '    if verb == "drain":\n        return {}\n'
            "    raise ValueError(verb)\n")
        root = make_tree(tmp_path, {
            "service/protocol.py": WIRE_PROTOCOL,
            "service/server.py": handled,
            "service/client.py": (
                "def call(sock):\n"
                '    sock.send({"verb": "reboot", "id": 1})\n'
            ),
        })
        result = run_checks(root, select=["R012"])
        assert anchors(result, "R012") == [("service/client.py", 2)]
        assert "unknown-verb" in hits(result, "R012")[0].message

    def test_unread_request_field_flagged(self, tmp_path):
        handled = WIRE_SERVER.replace(
            "    raise ValueError(verb)\n",
            '    if verb == "drain":\n        return {}\n'
            "    raise ValueError(verb)\n")
        root = make_tree(tmp_path, {
            "service/protocol.py": WIRE_PROTOCOL,
            "service/server.py": handled,
            "service/client.py": (
                "def call(sock):\n"
                '    sock.send({"verb": "ping", "payload": 1})\n'
            ),
        })
        result = run_checks(root, select=["R012"])
        assert anchors(result, "R012") == [("service/client.py", 2)]
        assert "'payload'" in hits(result, "R012")[0].message
        assert "never read" in hits(result, "R012")[0].message

    def test_format_tag_must_be_checked_where_keys_are_read(
            self, tmp_path):
        root = make_tree(tmp_path, {"campaign/store.py": (
            "import json\n"
            'FORMAT = "repro-test-v1"\n'
            "def load(path):\n"
            "    data = json.loads(path.read_text())\n"   # line 4
            '    return data.get("rows")\n'
        )})
        result = run_checks(root, select=["R012"])
        assert anchors(result, "R012") == [("campaign/store.py", 4)]
        assert '"format"' in hits(result, "R012")[0].message

    def test_format_checking_reader_is_clean(self, tmp_path):
        root = make_tree(tmp_path, {"campaign/store.py": (
            "import json\n"
            'FORMAT = "repro-test-v1"\n'
            "def load(path):\n"
            "    data = json.loads(path.read_text())\n"
            '    if data.get("format") != FORMAT:\n'
            "        raise ValueError(path)\n"
            '    return data.get("rows")\n'
        )})
        assert run_checks(root, select=["R012"]).ok

    def test_keyless_reader_is_exempt(self, tmp_path):
        # A loader that returns the raw dict reads no keys: no format
        # check required (matches campaign/checkpoint.read_status).
        root = make_tree(tmp_path, {"campaign/store.py": (
            "import json\n"
            'FORMAT = "repro-test-v1"\n'
            "def load(path):\n"
            "    return json.loads(path.read_text())\n"
        )})
        assert run_checks(root, select=["R012"]).ok

    def test_real_wire_protocol_is_conformant(self):
        assert run_checks(REPO_SRC, select=["R012"]).ok


# ---------------------------------------------------------------------------
# The acceptance gate: all three rules clean on the real tree


def test_real_tree_clean_under_dataflow_rules():
    result = run_checks(REPO_SRC, select=["R010", "R011", "R012"])
    assert result.ok, "\n".join(v.render() for v in result.violations)
