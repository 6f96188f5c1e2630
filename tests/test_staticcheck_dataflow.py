"""Tests for the staticcheck dataflow rule R012 (wire conformance).

Fixture trees mimic the ``src/repro`` layout (the rule keys off
canonical relpaths like ``service/protocol.py``).  The rule gets at
least one seeded true positive whose message is asserted to carry a
multi-step ``->`` witness chain.
"""

from repro.staticcheck import run_checks

from test_staticcheck import REPO_SRC, anchors, hits, make_tree


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
# The acceptance gate: the rule is clean on the real tree


def test_real_tree_clean_under_dataflow_rules():
    result = run_checks(REPO_SRC, select=["R012"])
    assert result.ok, "\n".join(v.render() for v in result.violations)
