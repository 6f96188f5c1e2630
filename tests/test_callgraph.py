"""Tests for :mod:`repro.staticcheck.callgraph` and ``.domains``.

Fixture packages mimic the ``src/repro`` layout (the index rebases
relative imports onto the ``repro`` root).  The contract under test is
the one the concurrency rules rely on: aliased imports, methods, and
nested defs resolve to the right project symbols, a ``self.<table>[key]``
call reaches every entry of a dict-literal dispatch table; anything else
dynamic degrades to ``unknown`` — silently, never with a crash — and the domain
pass propagates entry-point domains along resolved edges only.
"""

from pathlib import Path

from repro.staticcheck.callgraph import UNKNOWN, ProjectIndex
from repro.staticcheck.domains import (LOOP, MAIN, THREAD, WORKER,
                                       DomainAnalysis)
from repro.staticcheck.engine import load_module


def make_tree(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def index_of(root):
    modules = []
    for path in sorted(Path(root).rglob("*.py")):
        module, err = load_module(path, Path(root))
        assert err is None, f"fixture must parse: {err}"
        modules.append(module)
    return ProjectIndex(modules)


class TestSymbolTable:
    def test_functions_classes_and_module_bodies_are_indexed(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "def f():\n"
                "    return 1\n"
                "class C:\n"
                "    def m(self):\n"
                "        return 2\n"
            ),
        }))
        assert "core.mod.f" in project.functions
        assert "core.mod.C.m" in project.functions
        assert "core.mod.<module>" in project.functions
        assert project.functions["core.mod.<module>"].is_module
        assert "core.mod.C" in project.classes
        assert project.functions["core.mod.C.m"].cls is \
            project.classes["core.mod.C"]

    def test_nested_defs_get_qualified_names_and_parents(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "def outer():\n"
                "    def inner():\n"
                "        def innermost():\n"
                "            return 0\n"
                "        return innermost\n"
                "    return inner\n"
            ),
        }))
        inner = project.functions["core.mod.outer.inner"]
        innermost = project.functions["core.mod.outer.inner.innermost"]
        assert inner.parent is project.functions["core.mod.outer"]
        assert innermost.parent is inner

    def test_methods_are_not_nested_defs_of_enclosing_function(self, tmp_path):
        # A class inside a function opens its own scope: the method must
        # not be indexed as a child of the function.
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "def factory():\n"
                "    class Local:\n"
                "        def m(self):\n"
                "            return 1\n"
                "    return Local\n"
            ),
        }))
        factory = project.functions["core.mod.factory"]
        assert "m" not in factory.children


class TestCallResolution:
    def test_aliased_from_import_resolves_across_modules(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "util/helpers.py": "def helper():\n    return 1\n",
            "core/mod.py": (
                "from ..util.helpers import helper as h\n"
                "def f():\n"
                "    return h()\n"
            ),
        }))
        fn = project.functions["core.mod.f"]
        (site,) = project.callsites(fn)
        assert site.target.kind == "func"
        assert site.target.ref.qname == "util.helpers.helper"

    def test_aliased_module_import_resolves(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "util/helpers.py": "def helper():\n    return 1\n",
            "core/mod.py": (
                "import repro.util.helpers as uh\n"
                "def f():\n"
                "    return uh.helper()\n"
            ),
        }))
        (site,) = project.callsites(project.functions["core.mod.f"])
        assert site.target.kind == "func"
        assert site.target.ref.qname == "util.helpers.helper"

    def test_self_method_call_resolves(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "class C:\n"
                "    def a(self):\n"
                "        return self.b()\n"
                "    def b(self):\n"
                "        return 1\n"
            ),
        }))
        (site,) = project.callsites(project.functions["core.mod.C.a"])
        assert site.target.ref.qname == "core.mod.C.b"

    def test_method_of_locally_constructed_instance_resolves(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "class C:\n"
                "    def run(self):\n"
                "        return 1\n"
                "def f():\n"
                "    c = C()\n"
                "    return c.run()\n"
            ),
        }))
        sites = project.callsites(project.functions["core.mod.f"])
        targets = {s.target.ref.qname if s.target.kind == "func"
                   else s.target.kind for s in sites}
        assert "core.mod.C.run" in targets

    def test_annotated_parameter_type_resolves_method_calls(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "service/state.py": (
                "class State:\n"
                "    def analyze(self):\n"
                "        return 1\n"
            ),
            "service/server.py": (
                "from .state import State\n"
                "class Server:\n"
                "    def __init__(self, state: State) -> None:\n"
                "        self.state = state\n"
                "    def handle(self):\n"
                "        return self.state.analyze()\n"
            ),
        }))
        (site,) = project.callsites(
            project.functions["service.server.Server.handle"])
        assert site.target.kind == "func"
        assert site.target.ref.qname == "service.state.State.analyze"

    def test_external_calls_keep_dotted_names(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "import time\n"
                "def f():\n"
                "    time.sleep(1)\n"
            ),
        }))
        (site,) = project.callsites(project.functions["core.mod.f"])
        assert site.target.external_name == "time.sleep"

    def test_dynamic_calls_degrade_to_unknown_without_crashing(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "def f(handlers, name):\n"
                "    fn = handlers[name]\n"
                "    fn()\n"
                "    getattr(f, name)()\n"
                "    (lambda: 1)()\n"
            ),
        }))
        fn = project.functions["core.mod.f"]
        kinds = {s.target.kind for s in project.callsites(fn)
                 if s.target.external_name != "builtins.getattr"}
        assert kinds <= {"unknown"}
        assert project.project_callees(fn) == []

    def test_self_dispatch_table_resolves_to_every_entry(self, tmp_path):
        # The verb -> handler tables of the service and worker peers:
        # ``self._handlers[verb](...)`` reaches every handler.
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "class Server:\n"
                "    def __init__(self):\n"
                "        self._handlers = {'a': self._a, 'b': self._b}\n"
                "    def _a(self):\n"
                "        return 1\n"
                "    def _b(self):\n"
                "        return 2\n"
                "    def handle(self, verb):\n"
                "        return self._handlers[verb]()\n"
            ),
        }))
        fn = project.functions["service.mod.Server.handle"]
        assert sorted(callee.qname for callee, _ in
                      project.project_callees(fn)) == \
            ["service.mod.Server._a", "service.mod.Server._b"]

    def test_ambiguous_dispatch_tables_stay_unknown(self, tmp_path):
        # Rebound tables, or entries that do not resolve, are dynamic.
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "class Server:\n"
                "    def __init__(self, extra):\n"
                "        self._one = {'a': self._a}\n"
                "        self._two = {'a': self._a, 'x': extra}\n"
                "    def reset(self):\n"
                "        self._one = {}\n"
                "    def _a(self):\n"
                "        return 1\n"
                "    def handle(self, verb):\n"
                "        self._one[verb]()\n"
                "        self._two[verb]()\n"
            ),
        }))
        fn = project.functions["service.mod.Server.handle"]
        assert {s.target.kind for s in project.callsites(fn)} == {"unknown"}
        assert project.project_callees(fn) == []

    def test_import_cycles_stay_silent(self, tmp_path):
        # a imports from b, b imports from a: resolution must terminate.
        project = index_of(make_tree(tmp_path, {
            "core/a.py": "from .b import thing as t\n",
            "core/b.py": "from .a import t as thing\n",
        }))
        table = project.modules["core.a"]
        assert project._member(table, ["t"]) is UNKNOWN


class TestAttrTypes:
    def test_constructor_assignment_infers_attribute_type(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "import threading\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.RLock()\n"
            ),
        }))
        types = project.attr_types(project.classes["core.mod.C"])
        assert types["_lock"].kind == "instance_external"
        assert types["_lock"].ref == "threading.RLock"

    def test_conflicting_assignments_drop_the_attribute(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "core/mod.py": (
                "import threading\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self.x = threading.Lock()\n"
                "    def rebind(self):\n"
                "        self.x = threading.RLock()\n"
            ),
        }))
        types = project.attr_types(project.classes["core.mod.C"])
        assert "x" not in types


class TestDomains:
    def _domains(self, project, qname):
        analysis = DomainAnalysis.of(project)
        return analysis.domains_of(project.functions[qname])

    def test_thread_target_and_async_defs_are_seeded(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "import threading\n"
                "def worker():\n"
                "    return 1\n"
                "async def handler():\n"
                "    return 2\n"
                "def main():\n"
                "    threading.Thread(target=worker).start()\n"
            ),
        }))
        assert THREAD in self._domains(project, "service.mod.worker")
        assert LOOP in self._domains(project, "service.mod.handler")
        assert self._domains(project, "service.mod.main") == \
            frozenset((MAIN,))

    def test_loop_domain_propagates_through_sync_callees(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "async def handler():\n"
                "    return step()\n"
                "def step():\n"
                "    return leaf()\n"
                "def leaf():\n"
                "    return 1\n"
            ),
        }))
        assert LOOP in self._domains(project, "service.mod.leaf")
        analysis = DomainAnalysis.of(project)
        why = analysis.why(project.functions["service.mod.leaf"], LOOP)
        assert "service.mod.step" in why

    def test_calling_a_coroutine_does_not_leak_caller_domain(self, tmp_path):
        # main() calling asyncio.run(co()) must not mark co as MAIN: the
        # call only creates the coroutine, the loop executes it.
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "import asyncio\n"
                "async def co():\n"
                "    return 1\n"
                "def main():\n"
                "    asyncio.run(co())\n"
            ),
        }))
        assert self._domains(project, "service.mod.co") == frozenset((LOOP,))

    def test_executor_submission_seeds_worker_domain(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "analysis/mod.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def job(x):\n"
                "    return x\n"
                "def campaign():\n"
                "    pool = ProcessPoolExecutor(max_workers=2)\n"
                "    return list(pool.map(job, [1, 2]))\n"
            ),
        }))
        assert WORKER in self._domains(project, "analysis.mod.job")

    def test_thread_domain_flows_through_a_dispatch_table(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "distrib/mod.py": (
                "import threading\n"
                "class Node:\n"
                "    def __init__(self):\n"
                "        self._handlers = {'run': self._run}\n"
                "    def start(self):\n"
                "        threading.Thread(target=self._serve).start()\n"
                "    def _serve(self):\n"
                "        return self._handlers['run']()\n"
                "    def _run(self):\n"
                "        return 1\n"
            ),
        }))
        assert THREAD in self._domains(project, "distrib.mod.Node._run")

    def test_unresolvable_target_seeds_nothing(self, tmp_path):
        project = index_of(make_tree(tmp_path, {
            "service/mod.py": (
                "import threading\n"
                "def main(jobs):\n"
                "    threading.Thread(target=jobs[0]).start()\n"
                "def bystander():\n"
                "    return 1\n"
            ),
        }))
        assert self._domains(project, "service.mod.bystander") == \
            frozenset((MAIN,))
