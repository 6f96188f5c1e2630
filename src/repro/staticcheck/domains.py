"""Thread-domain inference: which execution contexts run each function.

The repository's runtime topology (docs/CONCURRENCY.md) has three kinds
of execution context, called *domains* here:

* :data:`MAIN` — a process's main thread: CLI commands, campaign
  drivers, test bodies, ``atexit`` handlers, and the jobs a process
  pool runs (each pool worker is its own address space, so its module
  state is a per-process copy, as the main thread's is);
* :data:`THREAD` — an auxiliary ``threading.Thread`` (the
  ``ServerThread`` daemon, ``ThreadPoolExecutor`` workers,
  ``asyncio.to_thread`` / ``run_in_executor`` offloads);
* :data:`LOOP` — an asyncio event loop (every coroutine, plus every
  synchronous function a coroutine calls — those block the loop while
  they run, wherever the loop's thread lives).

Inference seeds domains at the entry points the codebase actually uses —
``threading.Thread(target=...)``, ``asyncio.run``, pool/executor
submissions and initializers, ``multiprocessing.Process``, functions
named ``main`` — then propagates caller domains to callees over the
:class:`~repro.staticcheck.callgraph.ProjectIndex` call graph to a
fixpoint.  Async functions do not inherit caller domains (calling one
only *creates* a coroutine; it executes on a loop), and callback
registrations transfer control, not context, so their targets get the
registered domain instead of the registrar's.  A function nothing was
inferred for defaults to :data:`MAIN`: anything is callable from the
main thread until proven otherwise.

Every inferred domain carries a human-readable witness chain
(``handle <- _dispatch <- ServiceState.analyze``) so rule messages can
say *why* a function is believed to run somewhere.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import FunctionInfo, ProjectIndex, Sym

__all__ = ["MAIN", "THREAD", "LOOP", "DomainAnalysis"]

MAIN = "main"
THREAD = "thread"
LOOP = "event-loop"

#: External constructors whose ``target=`` callable runs on a new thread.
_THREAD_CTORS = {"threading.Thread", "threading.Timer"}
#: External constructors whose ``target=`` callable runs on the main
#: thread of a new process.
_PROCESS_CTORS = {"multiprocessing.Process", "multiprocessing.context.Process"}
#: Executor classes by the domain their submissions run in: a process
#: pool's job runs on its worker process's main thread.
_EXECUTOR_DOMAIN = {
    "concurrent.futures.ProcessPoolExecutor": MAIN,
    "concurrent.futures.process.ProcessPoolExecutor": MAIN,
    "multiprocessing.Pool": MAIN,
    "multiprocessing.pool.Pool": MAIN,
    "concurrent.futures.ThreadPoolExecutor": THREAD,
    "concurrent.futures.thread.ThreadPoolExecutor": THREAD,
}
#: Executor/pool methods whose first argument is the submitted callable.
_SUBMIT_METHODS = {"submit", "map", "apply", "apply_async", "map_async",
                   "imap", "imap_unordered", "starmap"}


class DomainAnalysis:
    """Domain sets (and witness chains) for every project function."""

    @classmethod
    def of(cls, project: ProjectIndex) -> "DomainAnalysis":
        """The (memoised) analysis for ``project`` — the concurrency
        rules share one inference pass per check run."""
        cached = getattr(project, "_domain_analysis", None)
        if cached is None:
            cached = cls(project)
            project._domain_analysis = cached  # type: ignore[attr-defined]
        return cached

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        self._domains: Dict[str, Set[str]] = {}
        self._why: Dict[Tuple[str, str], str] = {}
        self._infer()

    # -- public API ----------------------------------------------------------

    def domains_of(self, fn: FunctionInfo) -> FrozenSet[str]:
        """The inferred execution domains of ``fn`` (never empty)."""
        found = self._domains.get(fn.qname)
        if found:
            return frozenset(found)
        return frozenset((MAIN,))

    def why(self, fn: FunctionInfo, domain: str) -> str:
        """A witness chain for ``fn`` running in ``domain``."""
        return self._why.get((fn.qname, domain),
                             f"{fn.name}: default (nothing marked it "
                             "otherwise, so the main thread can reach it)")

    # -- seeding -------------------------------------------------------------

    def _seed(self, target: Sym, domain: str, reason: str) -> None:
        fn = self._as_function(target)
        if fn is None:
            return
        self._domains.setdefault(fn.qname, set()).add(domain)
        self._why.setdefault((fn.qname, domain), reason)

    @staticmethod
    def _as_function(sym: Sym) -> Optional[FunctionInfo]:
        if sym.kind == "func":
            return sym.ref  # type: ignore[return-value]
        if sym.kind == "class":
            return sym.ref.methods.get("__init__")  # type: ignore[union-attr]
        return None

    def _infer(self) -> None:
        project = self.project
        for fn in project.all_functions():
            if fn.is_module:
                self._domains.setdefault(fn.qname, set()).add(MAIN)
                self._why.setdefault((fn.qname, MAIN),
                                     f"{fn.qname}: module-level code runs "
                                     "at import time on the importing "
                                     "thread")
            if fn.is_async:
                self._domains.setdefault(fn.qname, set()).add(LOOP)
                self._why.setdefault((fn.qname, LOOP),
                                     f"{fn.name} is a coroutine — it only "
                                     "ever executes on an event loop")
            if fn.name == "main" and fn.cls is None:
                self._domains.setdefault(fn.qname, set()).add(MAIN)
                self._why.setdefault((fn.qname, MAIN),
                                     f"{fn.qname} is a CLI entry point")
            for site in project.callsites(fn):
                self._seed_from_call(fn, site.node, site.target)
        self._propagate()

    def _seed_from_call(self, fn: FunctionInfo, call: ast.Call,
                        target: Sym) -> None:
        project = self.project
        name = target.external_name
        if name in _THREAD_CTORS or name in _PROCESS_CTORS:
            domain = THREAD if name in _THREAD_CTORS else MAIN
            for kw in call.keywords:
                if kw.arg == "target":
                    self._seed(project.resolve_callable_ref(fn, kw.value),
                               domain,
                               f"passed as target= to {name} in {fn.qname}")
            return
        if name == "asyncio.run":
            for arg in call.args[:1]:
                ref = arg.func if isinstance(arg, ast.Call) else arg
                self._seed(project.resolve_callable_ref(fn, ref), LOOP,
                           f"run by asyncio.run in {fn.qname}")
            return
        if name == "asyncio.to_thread":
            for arg in call.args[:1]:
                self._seed(project.resolve_callable_ref(fn, arg), THREAD,
                           f"offloaded via asyncio.to_thread in {fn.qname}")
            return
        if name is not None and name.endswith(".run_in_executor"):
            # loop.run_in_executor(executor, fn, *args): the callable is
            # the second positional argument.
            for arg in call.args[1:2]:
                self._seed(project.resolve_callable_ref(fn, arg), THREAD,
                           f"offloaded via run_in_executor in {fn.qname}")
            return
        # Executor/pool submissions: resolve the receiver's class.
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in _SUBMIT_METHODS:
            base = project.resolve_value(fn, call.func.value)
            if base.kind == "instance_external" and \
                    base.ref in _EXECUTOR_DOMAIN:
                domain = _EXECUTOR_DOMAIN[base.ref]  # type: ignore[index]
                for arg in call.args[:1]:
                    self._seed(project.resolve_callable_ref(fn, arg), domain,
                               f"submitted to {base.ref} via "
                               f".{call.func.attr} in {fn.qname}")
            return
        # Executor constructors: initializer= runs in every worker.
        if name in _EXECUTOR_DOMAIN:
            for kw in call.keywords:
                if kw.arg == "initializer":
                    self._seed(project.resolve_callable_ref(fn, kw.value),
                               _EXECUTOR_DOMAIN[name],
                               f"installed as {name} initializer "
                               f"in {fn.qname}")

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> None:
        """Caller domains flow to (non-async) callees until nothing
        changes.  Deterministic: functions visited in sorted order."""
        project = self.project
        edges: List[Tuple[FunctionInfo, FunctionInfo]] = []
        for fn in project.all_functions():
            for callee, _node in project.project_callees(fn):
                edges.append((fn, callee))
        changed = True
        while changed:
            changed = False
            for caller, callee in edges:
                if callee.is_async:
                    continue  # calling a coroutine only instantiates it
                # An unseeded caller is main-reachable by default, and
                # that default must flow: a CLI handler dispatched
                # dynamically still runs its callees on the main thread.
                src = self._domains.get(caller.qname) or {MAIN}
                dst = self._domains.setdefault(callee.qname, set())
                for domain in src:
                    if domain not in dst:
                        dst.add(domain)
                        self._why.setdefault(
                            (callee.qname, domain),
                            f"called from {caller.qname} "
                            f"[{self._short_why(caller, domain)}]")
                        changed = True

    def _short_why(self, fn: FunctionInfo, domain: str) -> str:
        reason = self._why.get((fn.qname, domain), "")
        # Keep chains readable: show at most the nearest two hops.
        if reason.count("[") >= 2:
            head = reason.split("[", 1)[0].rstrip()
            return f"{head} [...]"
        return reason
