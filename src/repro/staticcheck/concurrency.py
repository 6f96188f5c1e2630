"""The interprocedural concurrency rules: R006–R008.

All three rules run over the :class:`~repro.staticcheck.callgraph.ProjectIndex`
(whole-project symbol table + call graph) and the
:class:`~repro.staticcheck.domains.DomainAnalysis` thread-domain pass,
via the engine's ``check_project`` hook.  They exist because PRs 1–2
made the tree concurrent — an asyncio admission service on a dedicated
``ServerThread``, campaign workers in a process pool, process-wide
caches shared between them — and a data race or a stalled event loop
silently voids the determinism guarantees every reproduced figure rests
on.  The single-file rules cannot see any of that; these can:

* **R006 blocking-in-async** — a blocking primitive (``time.sleep``,
  sync socket/file I/O, ``subprocess``) reachable from a coroutine
  stalls the whole event loop, freezing every pipelined connection.
* **R007 domain confinement** — module-level mutable state written from
  more than one thread domain without a lock is a data race; confined
  or internally-locked state is fine and recognised as such.
* **R008 lock discipline** — inconsistent acquisition order across
  threads deadlocks; ``await`` while holding a sync lock blocks the
  loop for as long as any other thread holds the lock; a bare
  ``acquire()`` leaks on the first exception.

What crosses a process boundary is not a rule: the pool pickles every
submission and refuses a lock or socket on every attempt, and
``dispatch_jobs`` reports that cause (``tests/test_campaign.py`` ships
a lock-holding object as a job function, a payload and a shard worker).

Shared design rule: resolution failures stay *silent*.  A dynamic call
the index cannot resolve contributes no edge, no domain, no violation —
the checker must never guess, and never crash.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import ClassInfo, FunctionInfo, ProjectIndex
from .domains import LOOP, DomainAnalysis
from .rules import Rule
from .violations import Violation

__all__ = [
    "BlockingInAsyncRule",
    "DomainConfinementRule",
    "LockDisciplineRule",
    "CONCURRENCY_RULES",
]


def _child_stmt_lists(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    """The statement lists nested directly inside a compound statement
    (bodies, orelse, finalbody, except-handler bodies) — the unit the
    lock-context walkers recurse on."""
    for _field, value in ast.iter_fields(stmt):
        if isinstance(value, list):
            if value and isinstance(value[0], ast.stmt):
                yield value
            else:
                for v in value:
                    if isinstance(v, ast.ExceptHandler):
                        yield v.body


def _own_expr_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """``stmt`` plus its expression subtrees, *not* descending into
    nested statements — structural recursion owns those, so each node is
    visited exactly once with the correct lock context."""
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for _field, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                if not isinstance(value, ast.stmt):
                    stack.append(value)
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.AST) and \
                            not isinstance(v, (ast.stmt, ast.ExceptHandler)):
                        stack.append(v)


# ---------------------------------------------------------------------------
# R006 — blocking calls reachable from the event loop


class BlockingInAsyncRule(Rule):
    """No blocking primitives on the event loop.

    Every request of the admission service is handled by coroutines on
    one loop; a single ``time.sleep`` (or sync socket read, subprocess
    wait, file read) anywhere in the synchronous call chain under a
    coroutine stalls *every* connection at once.  The rule flags
    blocking primitives in any function the domain pass places on an
    event loop — i.e. reachable from a coroutine without an
    ``run_in_executor`` / ``to_thread`` hop (those re-domain the callee
    to a worker thread and are recognised as such).
    """

    rule_id = "R006"
    name = "blocking-in-async"
    uses_project = True
    description = ("no blocking primitives (time.sleep, sync socket/file "
                   "I/O, subprocess) in functions reachable from a "
                   "coroutine")

    #: Exact external names that block the calling thread.
    BLOCKING = {
        "time.sleep",
        "builtins.open",
        "builtins.input",
        "os.system",
        "os.popen",
        "os.waitpid",
        "select.select",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
    #: Dotted prefixes that block (module families and methods of
    #: externally-constructed blocking objects).
    BLOCKING_PREFIXES = (
        "subprocess.",
        "socket.create_connection.",   # methods of a connected socket
        "socket.socket.",              # methods of a raw socket
    )
    #: Socket methods that wait on the peer (the prefixes above only
    #: match when construction was resolvable; these names make the
    #: message precise).
    _WAITING = {"recv", "recv_into", "accept", "connect", "sendall",
                "makefile", "read", "readline"}

    def _is_blocking(self, external: str) -> bool:
        if external in self.BLOCKING:
            return True
        return any(external.startswith(p) for p in self.BLOCKING_PREFIXES)

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        domains = DomainAnalysis.of(project)
        for fn in project.all_functions():
            if fn.is_module:
                continue
            if LOOP not in domains.domains_of(fn):
                continue
            for site in project.callsites(fn):
                external = site.target.external_name
                if external is None or not self._is_blocking(external):
                    continue
                where = ("inside coroutine" if fn.is_async
                         else "reachable from the event loop")
                yield Violation(
                    path=fn.module.relpath,
                    line=getattr(site.node, "lineno", 1),
                    col=getattr(site.node, "col_offset", 0),
                    rule_id=self.rule_id,
                    message=(f"{external} blocks the event loop "
                             f"({where} {fn.qname}: "
                             f"{domains.why(fn, LOOP)}) — await an async "
                             "equivalent or offload via run_in_executor"))


# ---------------------------------------------------------------------------
# R007 — thread-domain confinement of module-level mutable state


class _WriteSite:
    """One mutation of a tracked module-level global."""

    __slots__ = ("fn", "node", "protected", "how")

    def __init__(self, fn: FunctionInfo, node: ast.AST, protected: bool,
                 how: str) -> None:
        self.fn = fn
        self.node = node
        self.protected = protected
        self.how = how


class DomainConfinementRule(Rule):
    """Module-level mutable state must be single-domain, locked, or
    internally synchronised.

    The process-wide caches (``ANALYSIS_CACHE``, ``HYPERPERIOD_CACHE``)
    are written by campaign code on the main thread *and* by the
    admission service on its ``ServerThread`` event loop; an unlocked
    ``OrderedDict`` mutated from two threads corrupts itself under
    free-threaded Python and drops/duplicates entries even under the
    GIL.  A write is considered safe when it happens under a ``with
    <lock>`` on a resolvable lock, or through a method of a class whose
    mutating methods all take ``self._lock`` (the pattern
    :class:`repro.util.lru.LRUCache` implements) — that is what makes
    "give the LRU a lock" a *fix* the checker can verify rather than a
    comment it has to trust.
    """

    rule_id = "R007"
    name = "domain-confinement"
    uses_project = True
    description = ("module-level mutable state must not be written from "
                   "two thread domains without a lock or internal "
                   "synchronisation")

    #: External constructors that build mutable containers.
    MUTABLE_CTORS = {
        "builtins.list", "builtins.dict", "builtins.set",
        "builtins.bytearray",
        "collections.defaultdict", "collections.OrderedDict",
        "collections.Counter", "collections.deque",
    }
    #: Method names that mutate common containers (used only when the
    #: receiver's class cannot be resolved to project code).
    MUTATOR_NAMES = {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "setdefault", "add", "discard",
        "appendleft", "popleft", "move_to_end", "put",
    }
    #: External lock constructors that protect a write site.
    LOCK_CTORS = {"threading.Lock", "threading.RLock",
                  "threading.Condition", "threading.Semaphore",
                  "threading.BoundedSemaphore"}

    # -- tracked globals -----------------------------------------------------

    def _tracked_globals(self, project: ProjectIndex
                         ) -> Dict[Tuple[str, str], Optional[ClassInfo]]:
        """``(module_qname, name) -> project class (or None)`` for every
        module-level binding whose value is mutable."""
        tracked: Dict[Tuple[str, str], Optional[ClassInfo]] = {}
        for mod_q in sorted(project.modules):
            table = project.modules[mod_q]
            body = table.body
            if body is None:
                continue
            for name, value in table.globals.items():
                if name.isupper() and isinstance(value, (ast.Tuple,
                                                         ast.Constant)):
                    continue  # immutable constant
                if isinstance(value, (ast.List, ast.Dict, ast.Set,
                                      ast.ListComp, ast.SetComp,
                                      ast.DictComp)):
                    tracked[(mod_q, name)] = None
                elif isinstance(value, ast.Call):
                    target = project.resolve_value(body, value.func)
                    if target.kind == "class":
                        tracked[(mod_q, name)] = target.ref
                    elif target.external_name in self.MUTABLE_CTORS:
                        tracked[(mod_q, name)] = None
        return tracked

    # -- lock recognition ----------------------------------------------------

    def _is_lock(self, project: ProjectIndex, fn: FunctionInfo,
                 expr: ast.expr) -> bool:
        sym = project.resolve_value(fn, expr)
        return sym.kind == "instance_external" and \
            sym.ref in self.LOCK_CTORS

    def _lock_attrs(self, project: ProjectIndex, cls: ClassInfo) -> Set[str]:
        return {attr for attr, sym in project.attr_types(cls).items()
                if sym.kind == "instance_external"
                and sym.ref in self.LOCK_CTORS}

    def _method_mutation(self, project: ProjectIndex,
                         method: FunctionInfo) -> str:
        """``'no'`` (method does not mutate self), ``'locked'`` (every
        mutation sits under ``with self.<lock>``), or ``'unlocked'``."""
        cls = method.cls
        if cls is None or isinstance(method.node, ast.Module):
            return "no"
        lock_attrs = self._lock_attrs(project, cls)

        def is_self_attr(node: ast.expr) -> bool:
            return (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self")

        def is_lock_guard(item: ast.withitem) -> bool:
            ctx = item.context_expr
            return is_self_attr(ctx) and ctx.attr in lock_attrs  # type: ignore[union-attr]

        def mutates(node: ast.AST) -> bool:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    inner = target
                    while isinstance(inner, ast.Subscript):
                        inner = inner.value
                    if is_self_attr(inner):
                        # ``self.x = threading.Lock()`` in __init__ is
                        # construction, not shared-state mutation.
                        return method.name != "__init__"
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self.MUTATOR_NAMES:
                inner = node.func.value
                while isinstance(inner, ast.Subscript):
                    inner = inner.value
                if is_self_attr(inner):
                    return True
            return False

        unlocked = False
        mutated = False

        def walk(stmts: Sequence[ast.stmt], locked: bool) -> None:
            nonlocal unlocked, mutated
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    guards = any(is_lock_guard(i) for i in stmt.items)
                    walk(stmt.body, locked or guards)
                    continue
                for node in _own_expr_nodes(stmt):
                    if mutates(node):
                        mutated = True
                        if not locked:
                            unlocked = True
                # Nested statements recurse structurally so a With inside
                # e.g. an If still counts as locked for its body.
                for sub in _child_stmt_lists(stmt):
                    walk(sub, locked)

        walk(list(method.node.body), False)
        if not mutated:
            return "no"
        return "unlocked" if unlocked else "locked"

    # -- write-site scanning -------------------------------------------------

    def _resolve_global(self, project: ProjectIndex, fn: FunctionInfo,
                        name: str,
                        tracked: Dict[Tuple[str, str], Optional[ClassInfo]]
                        ) -> Optional[Tuple[str, str]]:
        """The tracked-global key a bare name refers to, if any (follows
        import aliases so cross-module writes canonicalise)."""
        sym = project.resolve_name(fn, name)
        if sym.kind != "global":
            return None
        table, gname = sym.ref  # type: ignore[misc]
        key = (table.qname, gname)
        return key if key in tracked else None

    def _iter_writes(self, project: ProjectIndex, fn: FunctionInfo,
                     tracked: Dict[Tuple[str, str], Optional[ClassInfo]]
                     ) -> Iterator[Tuple[Tuple[str, str], ast.AST, bool, str]]:
        """Yields ``(global key, node, protected, how)`` for each write
        to a tracked global inside ``fn``."""
        declared_global: Set[str] = set()
        if not fn.is_module:
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)

        def under_lock(stack: List[bool]) -> bool:
            return any(stack)

        def classify_method_call(key: Tuple[str, str], call: ast.Call,
                                 locked: bool) -> Optional[
                                     Tuple[Tuple[str, str], ast.AST, bool, str]]:
            attr = call.func.attr  # type: ignore[union-attr]
            cls = tracked[key]
            if cls is not None:
                method = cls.methods.get(attr)
                if method is None:
                    return None
                mutation = self._method_mutation(project, method)
                if mutation == "no":
                    return None
                protected = locked or mutation == "locked"
                how = (f"{cls.name}.{attr}() "
                       + ("synchronises internally" if mutation == "locked"
                          else "mutates without a lock"))
                return key, call, protected, how
            if attr in self.MUTATOR_NAMES:
                return key, call, locked, f".{attr}() on a shared container"
            return None

        def walk(stmts: Sequence[ast.stmt], lock_stack: List[bool]
                 ) -> Iterator[Tuple[Tuple[str, str], ast.AST, bool, str]]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    guards = any(self._is_lock(project, fn, i.context_expr)
                                 for i in stmt.items)
                    yield from walk(stmt.body, lock_stack + [guards])
                    continue
                locked = under_lock(lock_stack)
                for node in _own_expr_nodes(stmt):
                    yield from self._stmt_writes(
                        project, fn, node, tracked, declared_global,
                        locked, classify_method_call)
                for sub in _child_stmt_lists(stmt):
                    yield from walk(sub, lock_stack)

        yield from walk(list(fn.node.body), [])

    def _stmt_writes(self, project: ProjectIndex, fn: FunctionInfo,
                     node: ast.AST,
                     tracked: Dict[Tuple[str, str], Optional[ClassInfo]],
                     declared_global: Set[str], locked: bool,
                     classify_method_call) -> Iterator[
                         Tuple[Tuple[str, str], ast.AST, bool, str]]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name):
                    key = self._resolve_global(project, fn,
                                               target.value.id, tracked)
                    if key is not None:
                        yield key, node, locked, "subscript assignment"
                elif isinstance(target, ast.Name) and \
                        target.id in declared_global:
                    key = self._resolve_global(project, fn, target.id,
                                               tracked)
                    if key is not None:
                        yield key, node, locked, "rebinding via `global`"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name):
            key = self._resolve_global(project, fn, node.func.value.id,
                                       tracked)
            if key is not None:
                found = classify_method_call(key, node, locked)
                if found is not None:
                    yield found

    # -- the rule ------------------------------------------------------------

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        domains = DomainAnalysis.of(project)
        tracked = self._tracked_globals(project)
        if not tracked:
            return
        sites: Dict[Tuple[str, str], List[_WriteSite]] = {}
        for fn in project.all_functions():
            for key, node, protected, how in self._iter_writes(project, fn,
                                                               tracked):
                sites.setdefault(key, []).append(
                    _WriteSite(fn, node, protected, how))
        for key in sorted(sites):
            mod_q, name = key
            writes = sites[key]
            write_domains: Set[str] = set()
            for site in writes:
                write_domains |= domains.domains_of(site.fn)
            if len(write_domains) < 2:
                continue  # confined to one domain
            unprotected = [s for s in writes if not s.protected]
            for site in unprotected:
                others = sorted(write_domains)
                yield Violation(
                    path=site.fn.module.relpath,
                    line=getattr(site.node, "lineno", 1),
                    col=getattr(site.node, "col_offset", 0),
                    rule_id=self.rule_id,
                    message=(f"{mod_q}.{name} is written from thread "
                             f"domains {{{', '.join(others)}}} but this "
                             f"write ({site.how}, in {site.fn.qname}) "
                             "holds no lock — guard it, confine the "
                             "state to one domain, or synchronise the "
                             "container internally"))


# ---------------------------------------------------------------------------
# R008 — lock discipline


class _LockRef:
    """One resolvable lock object: identity + kind."""

    __slots__ = ("ident", "ctor", "label")

    def __init__(self, ident: Tuple[str, ...], ctor: str, label: str) -> None:
        self.ident = ident
        self.ctor = ctor
        self.label = label

    @property
    def is_sync(self) -> bool:
        return not self.ctor.startswith("asyncio.")

    @property
    def is_reentrant(self) -> bool:
        return self.ctor == "threading.RLock"


class _FnLocks:
    """Per-function lock facts feeding the interprocedural pass."""

    __slots__ = ("acquires", "calls", "violations", "edges")

    def __init__(self) -> None:
        #: Locks this function acquires directly: (lock, node).
        self.acquires: List[Tuple[_LockRef, ast.AST]] = []
        #: Project calls with the locks held at the call site.
        self.calls: List[Tuple[FunctionInfo, ast.AST, Tuple[_LockRef, ...]]] = []
        self.violations: List[Violation] = []
        #: Direct order edges observed lexically: (held, acquired, node).
        self.edges: List[Tuple[_LockRef, _LockRef, ast.AST]] = []


class LockDisciplineRule(Rule):
    """Deadlock-freedom by construction: a global acquisition order, no
    ``await`` under a sync lock, no bare ``acquire()``.

    The acquisition-order graph has one node per lock (module global or
    ``self.<attr>``, conflating instances of a class — conservative) and
    an edge A→B whenever B is acquired, directly or through any resolved
    call chain, while A is held.  A cycle means two threads can block
    each other forever; the single-edge cases (``await`` under a
    ``threading`` lock, ``acquire()`` outside ``with``/``try-finally``)
    hang or leak without needing a second thread.
    """

    rule_id = "R008"
    name = "lock-discipline"
    uses_project = True
    description = ("lock-acquisition order must be acyclic; no await "
                   "under a sync lock; acquire only via with or "
                   "try-finally")

    LOCK_CTORS = {"threading.Lock", "threading.RLock",
                  "threading.Condition", "asyncio.Lock",
                  "asyncio.Condition"}

    # -- lock resolution -----------------------------------------------------

    def _resolve_lock(self, project: ProjectIndex, fn: FunctionInfo,
                      expr: ast.expr) -> Optional[_LockRef]:
        sym = project.resolve_value(fn, expr)
        if sym.kind != "instance_external" or sym.ref not in self.LOCK_CTORS:
            return None
        ctor: str = sym.ref  # type: ignore[assignment]
        if isinstance(expr, ast.Name):
            owner = project.resolve_name(fn, expr.id)
            if owner.kind == "global":
                table, gname = owner.ref  # type: ignore[misc]
                return _LockRef(("global", table.qname, gname), ctor,
                                f"{table.qname}.{gname}")
            return _LockRef(("local", fn.qname, expr.id), ctor,
                            f"{fn.qname}:{expr.id}")
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and \
                expr.value.id == "self" and fn.cls is not None:
            return _LockRef(("attr", fn.cls.qname, expr.attr), ctor,
                            f"{fn.cls.qname}.{expr.attr}")
        return None

    # -- per-function scan ---------------------------------------------------

    def _scan(self, project: ProjectIndex, fn: FunctionInfo) -> _FnLocks:
        facts = _FnLocks()
        edges: List[Tuple[_LockRef, _LockRef, ast.AST]] = []

        def violation(node: ast.AST, message: str) -> None:
            facts.violations.append(Violation(
                path=fn.module.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule_id=self.rule_id, message=message))

        def on_acquire(lock: _LockRef, node: ast.AST,
                       held: Tuple[_LockRef, ...]) -> None:
            facts.acquires.append((lock, node))
            for h in held:
                if h.ident == lock.ident:
                    if lock.is_sync and not lock.is_reentrant:
                        violation(node,
                                  f"re-acquisition of non-reentrant lock "
                                  f"{lock.label} while already held — "
                                  "self-deadlock")
                    continue
                edges.append((h, lock, node))

        def visit_expr(node: ast.expr, held: Tuple[_LockRef, ...],
                       releasable: Set[Tuple[str, ...]]) -> None:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Lambda,)):
                    continue
                if isinstance(sub, ast.Await):
                    sync_held = [h for h in held if h.is_sync]
                    if sync_held:
                        violation(sub,
                                  f"await while holding sync lock "
                                  f"{sync_held[0].label} — blocks the "
                                  "event loop until another thread "
                                  "releases it")
                elif isinstance(sub, ast.Call):
                    self._visit_call(project, fn, sub, held, releasable,
                                     facts, on_acquire, violation)

        def finally_released(finalbody: Sequence[ast.stmt]
                             ) -> Set[Tuple[str, ...]]:
            out: Set[Tuple[str, ...]] = set()
            for stmt in finalbody:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call) and \
                            isinstance(node.func, ast.Attribute) and \
                            node.func.attr == "release":
                        lock = self._resolve_lock(project, fn,
                                                  node.func.value)
                        if lock is not None:
                            out.add(lock.ident)
            return out

        def walk(stmts: Sequence[ast.stmt], held: Tuple[_LockRef, ...],
                 releasable: Set[Tuple[str, ...]]) -> None:
            for i, stmt in enumerate(stmts):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                # ``lock.acquire()`` immediately followed by
                # ``try: ... finally: lock.release()`` is the idiomatic
                # manual form — the next statement's finally legitimises
                # this statement's acquire (and only this statement's).
                nxt = stmts[i + 1] if i + 1 < len(stmts) else None
                step_releasable = releasable
                if isinstance(nxt, ast.Try) and nxt.finalbody:
                    step_releasable = releasable | \
                        finally_released(nxt.finalbody)
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired: List[_LockRef] = []
                    inner_held = held
                    for item in stmt.items:
                        visit_expr(item.context_expr, inner_held, releasable)
                        lock = self._resolve_lock(project, fn,
                                                  item.context_expr)
                        if lock is not None:
                            on_acquire(lock, item.context_expr, inner_held)
                            acquired.append(lock)
                            inner_held = inner_held + (lock,)
                    if isinstance(stmt, ast.AsyncWith):
                        sync_held = [h for h in held if h.is_sync]
                        if sync_held:
                            violation(stmt,
                                      f"async with while holding sync "
                                      f"lock {sync_held[0].label} — "
                                      "suspends the coroutine with the "
                                      "lock held")
                    walk(stmt.body, inner_held, releasable)
                    continue
                if isinstance(stmt, ast.Try):
                    released = finally_released(stmt.finalbody)
                    walk(stmt.body, held, releasable | released)
                    for handler in stmt.handlers:
                        walk(handler.body, held, releasable | released)
                    walk(stmt.orelse, held, releasable | released)
                    walk(stmt.finalbody, held, releasable)
                    continue
                for _field, value in ast.iter_fields(stmt):
                    if isinstance(value, list) and value and \
                            isinstance(value[0], ast.stmt):
                        walk(value, held, releasable)
                    elif isinstance(value, ast.expr):
                        visit_expr(value, held, step_releasable)
                    elif isinstance(value, list):
                        for v in value:
                            if isinstance(v, ast.expr):
                                visit_expr(v, held, step_releasable)

        walk(list(fn.node.body), (), set())
        facts.edges = edges
        return facts

    def _visit_call(self, project: ProjectIndex, fn: FunctionInfo,
                    call: ast.Call, held: Tuple[_LockRef, ...],
                    releasable: Set[Tuple[str, ...]], facts: _FnLocks,
                    on_acquire, violation) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            lock = self._resolve_lock(project, fn, func.value)
            if lock is not None:
                if lock.ident not in releasable:
                    violation(call,
                              f"{lock.label}.acquire() outside "
                              "with/try-finally — the lock leaks on the "
                              "first exception")
                on_acquire(lock, call, held)
            return
        if isinstance(func, ast.Attribute) and func.attr == "release":
            return
        target = project.resolve_value(fn, func)
        callee: Optional[FunctionInfo] = None
        if target.kind == "func":
            callee = target.ref  # type: ignore[assignment]
        elif target.kind == "class":
            callee = target.ref.methods.get("__init__")  # type: ignore[union-attr]
        if callee is not None:
            facts.calls.append((callee, call, held))

    # -- the rule ------------------------------------------------------------

    def check_project(self, project: ProjectIndex) -> Iterator[Violation]:
        facts: Dict[str, _FnLocks] = {}
        for fn in project.all_functions():
            facts[fn.qname] = self._scan(project, fn)

        # Transitive acquire sets, to a fixpoint (cycle-safe).
        all_acquires: Dict[str, Set[Tuple[str, ...]]] = {
            q: {lock.ident for lock, _ in f.acquires}
            for q, f in facts.items()}
        lock_by_ident: Dict[Tuple[str, ...], _LockRef] = {}
        for f in facts.values():
            for lock, _node in f.acquires:
                lock_by_ident.setdefault(lock.ident, lock)
        changed = True
        while changed:
            changed = False
            for qname in sorted(facts):
                mine = all_acquires[qname]
                for callee, _node, _held in facts[qname].calls:
                    extra = all_acquires.get(callee.qname, set()) - mine
                    if extra:
                        mine |= extra
                        changed = True

        # Order edges: direct (recorded in _scan) + through calls.
        edges: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                    Tuple[str, int, str]] = {}
        for qname in sorted(facts):
            f = facts[qname]
            fn = project.functions[qname]
            for a, b, node in getattr(f, "edges", ()):
                edges.setdefault(
                    (a.ident, b.ident),
                    (fn.module.relpath, getattr(node, "lineno", 1),
                     f"{a.label} -> {b.label} in {qname}"))
            for callee, node, held in f.calls:
                if not held:
                    continue
                for ident in sorted(all_acquires.get(callee.qname, ())):
                    for h in held:
                        if h.ident == ident:
                            lock = lock_by_ident.get(ident)
                            if lock is not None and lock.is_sync and \
                                    not lock.is_reentrant:
                                yield Violation(
                                    path=fn.module.relpath,
                                    line=getattr(node, "lineno", 1),
                                    col=getattr(node, "col_offset", 0),
                                    rule_id=self.rule_id,
                                    message=(f"call to {callee.qname} "
                                             f"re-acquires non-reentrant "
                                             f"lock {h.label} already "
                                             "held here — self-deadlock"))
                            continue
                        edges.setdefault(
                            (h.ident, ident),
                            (fn.module.relpath, getattr(node, "lineno", 1),
                             f"{h.label} -> "
                             f"{lock_by_ident[ident].label} via call to "
                             f"{callee.qname} in {qname}"))

        yield from self._cycle_violations(edges, lock_by_ident)
        for qname in sorted(facts):
            yield from facts[qname].violations

    def _cycle_violations(self, edges, lock_by_ident) -> Iterator[Violation]:
        graph: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)
        for out in graph.values():
            out.sort()
        seen_cycles: Set[Tuple[Tuple[str, ...], ...]] = set()
        visiting: List[Tuple[str, ...]] = []
        done: Set[Tuple[str, ...]] = set()
        cycles: List[List[Tuple[str, ...]]] = []

        def visit(node: Tuple[str, ...]) -> None:
            if node in done:
                return
            if node in visiting:
                cycle = visiting[visiting.index(node):]
                canon = tuple(sorted(cycle))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(cycle))
                return
            visiting.append(node)
            for nxt in graph.get(node, ()):
                visit(nxt)
            visiting.pop()
            done.add(node)

        for node in sorted(graph):
            visit(node)
        for cycle in cycles:
            head, nxt = cycle[0], cycle[1] if len(cycle) > 1 else cycle[0]
            relpath, lineno, how = edges[(head, nxt)]
            labels = [lock_by_ident[i].label for i in cycle]
            yield Violation(
                path=relpath, line=lineno, col=0, rule_id=self.rule_id,
                message=("lock-order cycle: "
                         + " -> ".join(labels + [labels[0]])
                         + f" (first edge: {how}) — two threads taking "
                         "these in opposite orders deadlock"))


#: The three concurrency rules, in id order — appended to RULES.
CONCURRENCY_RULES: Tuple[Rule, ...] = (
    BlockingInAsyncRule(),
    DomainConfinementRule(),
    LockDisciplineRule(),
)
