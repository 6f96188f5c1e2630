"""Tests for the staticcheck dataflow rules: R011 and R012.

Fixture trees mimic the ``src/repro`` layout (the dataflow rules key off
canonical relpaths like ``sim/vector.py``).  Every rule gets at least
one seeded true positive whose message is asserted to carry a
multi-step ``->`` witness chain.
"""

import ast

from repro.staticcheck import run_checks
from repro.staticcheck.nptypes import infer_function

from test_staticcheck import REPO_SRC, anchors, hits, make_tree


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
# The acceptance gate: both rules clean on the real tree


def test_real_tree_clean_under_dataflow_rules():
    result = run_checks(REPO_SRC, select=["R011", "R012"])
    assert result.ok, "\n".join(v.render() for v in result.violations)
