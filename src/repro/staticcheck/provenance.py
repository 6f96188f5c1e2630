"""Seed provenance and canonical serialization: R013 and R015.

The campaign layer's reproducibility story is an arithmetic one: every
stochastic value in the runtime derives from one ``CampaignGrid.seed``
through the pure seed-split in ``campaign/spec.py`` (``seed + 7919*k +
104729*r``).  R013 is the static half of that promise — a taint
analysis over the PR-4 call graph that follows every RNG construction
site's seed expression backwards (through local bindings, arithmetic,
helper returns, and caller-passed parameters) and flags the ones that
provably reach *ambient entropy*: ``time.time``, ``os.urandom``,
``uuid``, ``id()``, ``hash()`` (``PYTHONHASHSEED``-dependent for
strings), or an RNG constructed with no seed at all (which the stdlib
seeds from OS entropy).  Per the project-wide contract the analysis is
unsound toward silence: a seed whose provenance cannot be proven either
way stays quiet — only *witnessed* entropy chains fire, and each
violation carries the full origin → binding → sink chain, anchored at
the entropy origin so a pragma documents the soundness argument where
the entropy enters.

R015 closes the other end: bytes that are *persisted or hashed* must be
canonical.  ``json.dumps`` without ``sort_keys=True`` serializes in
dict insertion order — byte-stable only until someone reorders an
assignment — and without pinned ``separators``/``indent`` the spacing
is whatever the stdlib defaults to this decade.  The rule proves every
dumps/dump call whose result reaches a persistence or hashing sink
(``atomic_write_text``, ``.write_text``, ``.write``, ``.encode`` for
wire frames or digests, ``hashlib``) pins both.  Returned or logged
JSON is not a sink; neither is a call forwarding ``**kwargs`` the rule
cannot see through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from .callgraph import FunctionInfo, ProjectIndex, _iter_own_statements
from .engine import ModuleInfo
from .passes import project_pass, register_pass
from .rules import Rule, _import_aliases
from .violations import Violation

__all__ = ["SeedTaintAnalysis", "SeedProvenanceRule",
           "CanonicalSerializationRule", "AmbientTaint"]


# ---------------------------------------------------------------------------
# R013 — seed provenance


#: RNG construction / reseeding entry points whose seed argument must
#: derive from campaign-seed arithmetic.
_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "random.seed",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.MT19937", "numpy.random.seed",
})

#: RNGs that are ambient by construction, whatever the arguments.
_ALWAYS_AMBIENT = {
    "random.SystemRandom": "random.SystemRandom draws from OS entropy",
}

#: Ambient-entropy sources: a seed that provably flows from one of
#: these is not derivable from the campaign seed.
_ENTROPY_CALLS: Dict[str, str] = {
    "time.time": "wall clock", "time.time_ns": "wall clock",
    "time.monotonic": "monotonic clock",
    "time.monotonic_ns": "monotonic clock",
    "time.perf_counter": "performance counter",
    "time.perf_counter_ns": "performance counter",
    "os.urandom": "OS entropy", "os.getpid": "process id",
    "os.getppid": "process id",
    "uuid.uuid1": "MAC/clock uuid", "uuid.uuid4": "random uuid",
    "secrets.token_bytes": "OS entropy", "secrets.token_hex": "OS entropy",
    "secrets.randbits": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
    "builtins.id": "CPython object address",
    "builtins.hash": "PYTHONHASHSEED-dependent hash",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
}

#: Pure conversions a seed expression may pass through unchanged.
_PASSTHROUGH_CALLS = frozenset({
    "builtins.int", "builtins.abs", "builtins.round", "builtins.float",
    "builtins.min", "builtins.max", "builtins.sum", "builtins.divmod",
    "int", "abs", "round", "float", "min", "max", "sum", "divmod",
})

_MAX_DEPTH = 8


@dataclass(frozen=True)
class AmbientTaint:
    """A witnessed entropy chain: where the entropy entered, plus the
    steps it took to get wherever the taint query started."""

    origin_path: str
    origin_line: int
    chain: Tuple[str, ...]

    def step(self, text: str) -> "AmbientTaint":
        return AmbientTaint(self.origin_path, self.origin_line,
                            self.chain + (text,))


@dataclass(frozen=True)
class SeedFinding:
    path: str           # anchor: the entropy origin's module
    line: int           # anchor: the entropy origin's line
    sink_package: str   # package of the RNG construction, for scoping
    message: str


class SeedTaintAnalysis:
    """The ``"seeds"`` pass: every proven ambient-entropy → RNG-seed
    chain in the project, computed once and filtered by the rule."""

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        self._callers: Dict[str, List[Tuple[FunctionInfo, ast.Call]]] = {}
        for fn in project.all_functions():
            for callee, call in project.project_callees(fn):
                self._callers.setdefault(callee.qname, []).append((fn, call))
        self.findings: List[SeedFinding] = []
        self._analyse()

    # -- resolution helpers ---------------------------------------------------

    def _callee_name(self, fn: FunctionInfo,
                     call: ast.Call) -> Optional[str]:
        sym = self.project.resolve_value(fn, call.func)
        if sym.kind == "external":
            return sym.ref  # type: ignore[return-value]
        return None

    def _project_callee(self, fn: FunctionInfo,
                        call: ast.Call) -> Optional[FunctionInfo]:
        sym = self.project.resolve_value(fn, call.func)
        return sym.ref if sym.kind == "func" else None  # type: ignore[return-value]

    @staticmethod
    def _at(fn: FunctionInfo, node: ast.AST) -> str:
        return f"{fn.module.relpath}:{getattr(node, 'lineno', '?')}"

    # -- the taint lattice query ----------------------------------------------

    def _expr_taint(self, fn: FunctionInfo, expr: ast.expr, depth: int,
                    stack: FrozenSet[object]) -> Optional[AmbientTaint]:
        """Is ``expr`` (inside ``fn``) provably derived from ambient
        entropy?  ``None`` = not proven (seeded or unknown): silence."""
        if depth > _MAX_DEPTH:
            return None
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Name):
            return self._name_taint(fn, expr.id, depth, stack)
        if isinstance(expr, ast.BinOp):
            return (self._expr_taint(fn, expr.left, depth + 1, stack) or
                    self._expr_taint(fn, expr.right, depth + 1, stack))
        if isinstance(expr, ast.UnaryOp):
            return self._expr_taint(fn, expr.operand, depth + 1, stack)
        if isinstance(expr, ast.IfExp):
            return (self._expr_taint(fn, expr.body, depth + 1, stack) or
                    self._expr_taint(fn, expr.orelse, depth + 1, stack))
        if isinstance(expr, ast.Call):
            return self._call_taint(fn, expr, depth, stack)
        if isinstance(expr, ast.Attribute):
            # e.g. ``uuid.uuid4().int`` — taint of the receiver.
            return self._expr_taint(fn, expr.value, depth + 1, stack)
        return None

    def _call_taint(self, fn: FunctionInfo, call: ast.Call, depth: int,
                    stack: FrozenSet[object]) -> Optional[AmbientTaint]:
        name = self._callee_name(fn, call)
        if name in _ENTROPY_CALLS:
            return AmbientTaint(
                fn.module.relpath, call.lineno,
                (f"{name}() ({_ENTROPY_CALLS[name]}) at "
                 f"{self._at(fn, call)}",))
        if name in _PASSTHROUGH_CALLS:
            for arg in call.args:
                taint = self._expr_taint(fn, arg, depth + 1, stack)
                if taint is not None:
                    return taint
            return None
        callee = self._project_callee(fn, call)
        if callee is not None and not isinstance(callee.node, ast.Module):
            return self._return_taint(fn, call, callee, depth, stack)
        return None

    def _return_taint(self, caller: FunctionInfo, call: ast.Call,
                      callee: FunctionInfo, depth: int,
                      stack: FrozenSet[object]) -> Optional[AmbientTaint]:
        """Taint of ``callee``'s return value for *this* call: params
        are bound to the call's arguments, evaluated in the caller."""
        if callee.qname in stack:
            return None
        stack = stack | {callee.qname}
        bindings = self._bind_args(callee, call)
        for node in _iter_own_statements(callee.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            taint = self._expr_taint_bound(callee, node.value, depth + 1,
                                           stack, caller, bindings)
            if taint is not None:
                return taint.step(
                    f"returned by {callee.name}() called at "
                    f"{self._at(caller, call)}")
        return None

    def _expr_taint_bound(self, fn: FunctionInfo, expr: ast.expr,
                          depth: int, stack: FrozenSet[object],
                          caller: FunctionInfo,
                          bindings: Dict[str, ast.expr]
                          ) -> Optional[AmbientTaint]:
        """Like :meth:`_expr_taint`, but bare parameter names of ``fn``
        resolve through ``bindings`` into the calling context (return-
        flow evaluation)."""
        if isinstance(expr, ast.Name) and expr.id in bindings:
            return self._expr_taint(caller, bindings[expr.id], depth + 1,
                                    stack)
        if isinstance(expr, ast.BinOp):
            return (self._expr_taint_bound(fn, expr.left, depth + 1, stack,
                                           caller, bindings) or
                    self._expr_taint_bound(fn, expr.right, depth + 1, stack,
                                           caller, bindings))
        if isinstance(expr, ast.UnaryOp):
            return self._expr_taint_bound(fn, expr.operand, depth + 1,
                                          stack, caller, bindings)
        return self._expr_taint(fn, expr, depth, stack)

    @staticmethod
    def _params_of(fn: FunctionInfo) -> List[str]:
        node = fn.node
        if isinstance(node, ast.Module):
            return []
        names = [a.arg for a in node.args.posonlyargs + node.args.args]
        if fn.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def _bind_args(self, callee: FunctionInfo,
                   call: ast.Call) -> Dict[str, ast.expr]:
        params = self._params_of(callee)
        bindings: Dict[str, ast.expr] = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(params):
                bindings[params[i]] = arg
        for kw in call.keywords:
            if kw.arg is not None:
                bindings[kw.arg] = kw.value
        return bindings

    def _name_taint(self, fn: FunctionInfo, name: str, depth: int,
                    stack: FrozenSet[object]) -> Optional[AmbientTaint]:
        key = (fn.qname, name)
        if key in stack:
            return None
        stack = stack | {key}
        # Local (re)bindings first: any assignment of the name whose
        # value is tainted taints the name (existential — one bad
        # binding is one real leak).
        for node in _iter_own_statements(fn.node):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                target, value = node.targets[0].id, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and \
                    isinstance(node.target, ast.Name):
                target, value = node.target.id, node.value
            if target != name or value is None:
                continue
            taint = self._expr_taint(fn, value, depth + 1, stack)
            if taint is not None:
                return taint.step(
                    f"bound to {name!r} at {self._at(fn, node)}")
        # Then parameters: join over every project caller's argument.
        if name in self._params_of(fn):
            for caller, call in self._callers.get(fn.qname, ()):
                bindings = self._bind_args(fn, call)
                if name not in bindings:
                    continue
                taint = self._expr_taint(caller, bindings[name], depth + 1,
                                         stack)
                if taint is not None:
                    return taint.step(
                        f"passed as parameter {name!r} of {fn.name}() at "
                        f"{self._at(caller, call)}")
        return None

    # -- the sweep ------------------------------------------------------------

    def _analyse(self) -> None:
        for fn in self.project.all_functions():
            for node in _iter_own_statements(fn.node):
                if isinstance(node, ast.Call):
                    self._check_rng_site(fn, node)

    def _check_rng_site(self, fn: FunctionInfo, call: ast.Call) -> None:
        name = self._callee_name(fn, call)
        if name in _ALWAYS_AMBIENT:
            self.findings.append(SeedFinding(
                path=fn.module.relpath, line=call.lineno,
                sink_package=fn.module.package,
                message=(f"ambient entropy seeds an RNG: {name}() at "
                         f"{self._at(fn, call)} -> "
                         f"{_ALWAYS_AMBIENT[name]} -> stochastic values "
                         "in this run are not derivable from the "
                         "campaign seed")))
            return
        if name not in _RNG_CONSTRUCTORS:
            return
        if not call.args and not call.keywords:
            self.findings.append(SeedFinding(
                path=fn.module.relpath, line=call.lineno,
                sink_package=fn.module.package,
                message=(f"ambient entropy seeds an RNG: {name}() at "
                         f"{self._at(fn, call)} constructed with no seed "
                         "-> the stdlib seeds it from OS entropy/time -> "
                         "stochastic values in this run are not "
                         "derivable from the campaign seed")))
            return
        seed_args = list(call.args) + \
            [kw.value for kw in call.keywords if kw.arg is not None]
        for arg in seed_args:
            taint = self._expr_taint(fn, arg, 0, frozenset())
            if taint is None:
                continue
            chain = " -> ".join(
                taint.chain + (f"seeds {name}() at {self._at(fn, call)}",))
            self.findings.append(SeedFinding(
                path=taint.origin_path, line=taint.origin_line,
                sink_package=fn.module.package,
                message=f"ambient entropy seeds an RNG: {chain}"))
            return


register_pass("seeds", SeedTaintAnalysis)


class SeedProvenanceRule(Rule):
    """R013: every RNG seed derives from the campaign seed split.

    Violations anchor at the entropy *origin* (the ``time.time()`` /
    ``os.urandom`` / no-arg construction site), so a pragma there
    documents why that entropy is acceptable — at the only place the
    soundness argument can be made.
    """

    rule_id = "R013"
    name = "seed-provenance"
    description = ("RNGs in core/, sim/, campaign/, workload/ must be "
                   "seeded from campaign-seed arithmetic; no-arg "
                   "constructions and time/urandom/uuid/id/hash-derived "
                   "seeds are flagged with origin->sink witness chains")
    uses_project = True
    needs = ("seeds",)

    #: Where the reproducibility contract applies.  ``sync/`` and
    #: ``analysis/`` own their seeds (demo scripts, post-hoc sampling).
    #: ``traces/`` is in: the trace-replay worker's subsampling RNG must
    #: come from the planner's shard-seed arithmetic, like any shard.
    SCOPE_PACKAGES = ("core", "sim", "campaign", "workload", "traces")

    def check_project(self, project: "ProjectIndex") -> Iterator[Violation]:
        analysis: SeedTaintAnalysis = project_pass(  # type: ignore[assignment]
            project, "seeds")
        for finding in analysis.findings:
            if finding.sink_package not in self.SCOPE_PACKAGES:
                continue
            yield Violation(path=finding.path, line=finding.line, col=0,
                            rule_id=self.rule_id, message=finding.message)


# ---------------------------------------------------------------------------
# R015 — canonical serialization


#: Call names (bare) that persist a string argument.
_PERSIST_FUNCS = {"atomic_write_text"}

#: Method attributes that persist / transmit / digest their argument.
_PERSIST_METHODS = {"write_text", "write", "writelines", "update",
                    "sendall", "send", "put", "put_nowait"}

#: Wrappers a dumps() result may pass through on its way to a sink.
_TRANSPARENT_PARENTS = (ast.BinOp, ast.IfExp, ast.FormattedValue,
                        ast.JoinedStr, ast.Starred)


class CanonicalSerializationRule(Rule):
    """R015: persisted or hashed JSON is canonical.

    A module rule on purpose: proving a dumps call canonical needs only
    the call's own keywords and the sink its result flows into within
    the enclosing scope — no call graph, no project pass, so
    ``--select R015`` stays cheap (the pass-isolation test pins that).
    """

    rule_id = "R015"
    name = "canonical-serialization"
    description = ("json.dumps/dump whose bytes are persisted, hashed, "
                   "or framed on the wire must pass sort_keys=True and "
                   "pin separators= or indent=")

    SCOPE_PACKAGES = ("core", "sim", "campaign", "workload", "distrib",
                      "service", "analysis", "traces")

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in self.SCOPE_PACKAGES:
            return
        json_names = _import_aliases(module.tree, "json")
        # Local alias -> original for ``from json import dumps [as d]``.
        dumps_aliases: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and not node.level \
                    and node.module == "json":
                for alias in node.names:
                    if alias.name in ("dumps", "dump"):
                        dumps_aliases[alias.asname or alias.name] = \
                            alias.name
        if not json_names and not dumps_aliases:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._dumps_kind(node, json_names, dumps_aliases)
            if kind is None:
                continue
            problem = self._non_canonical(node)
            if problem is None:
                continue
            sink = self._sink_of(node, kind, parents)
            if sink is None:
                continue
            yield self._violation(module, node, (
                f"non-canonical json.{kind} at {module.relpath}:"
                f"{node.lineno} ({problem}) -> {sink} -> bytes depend on "
                "dict insertion order / default spacing; pass "
                "sort_keys=True and pin separators= or indent="))

    @staticmethod
    def _dumps_kind(call: ast.Call, json_names: Set[str],
                    dumps_aliases: Dict[str, str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in json_names and \
                func.attr in ("dumps", "dump"):
            return func.attr
        if isinstance(func, ast.Name) and func.id in dumps_aliases:
            return dumps_aliases[func.id]
        return None

    @staticmethod
    def _non_canonical(call: ast.Call) -> Optional[str]:
        """What's missing — or ``None`` if canonical (or unprovable:
        ``**kwargs`` forwarding stays silent)."""
        kwargs = {kw.arg: kw.value for kw in call.keywords}
        if None in kwargs:
            return None  # **kwargs — can't prove either way
        missing = []
        sort_keys = kwargs.get("sort_keys")
        if not (isinstance(sort_keys, ast.Constant) and
                sort_keys.value is True):
            missing.append("sort_keys=True")
        if "separators" not in kwargs and "indent" not in kwargs:
            missing.append("pinned separators/indent")
        if not missing:
            return None
        return "missing " + " and ".join(missing)

    def _sink_of(self, call: ast.Call, kind: str,
                 parents: Dict[ast.AST, ast.AST]) -> Optional[str]:
        """A one-line description of the persistence/hash sink this
        call's bytes reach, or ``None`` (returned/logged JSON is free to
        be non-canonical)."""
        if kind == "dump":
            return f"written to a stream at line {call.lineno}"
        node: ast.AST = call
        parent = parents.get(node)
        while isinstance(parent, _TRANSPARENT_PARENTS):
            node, parent = parent, parents.get(parent)
        sink = self._direct_sink(node, parent)
        if sink is not None:
            return sink
        # One level of name indirection: text = dumps(...); sink(text).
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1 and \
                isinstance(parent.targets[0], ast.Name):
            name = parent.targets[0].id
            scope = self._enclosing_scope(parent, parents)
            for other in ast.walk(scope):
                if isinstance(other, ast.Name) and other.id == name and \
                        other is not parent.targets[0]:
                    inner: ast.AST = other
                    outer = parents.get(inner)
                    while isinstance(outer, _TRANSPARENT_PARENTS):
                        inner, outer = outer, parents.get(outer)
                    sink = self._direct_sink(inner, outer)
                    if sink is not None:
                        return sink
        return None

    @staticmethod
    def _direct_sink(node: ast.AST,
                     parent: Optional[ast.AST]) -> Optional[str]:
        if isinstance(parent, ast.Attribute) and parent.attr == "encode":
            return (f"encoded to wire/digest bytes at line "
                    f"{parent.lineno}")
        if isinstance(parent, ast.Call) and \
                any(arg is node for arg in parent.args):
            func = parent.func
            if isinstance(func, ast.Name) and func.id in _PERSIST_FUNCS:
                return f"persisted via {func.id}() at line {parent.lineno}"
            if isinstance(func, ast.Attribute):
                if func.attr in _PERSIST_METHODS:
                    return (f"persisted via .{func.attr}() at line "
                            f"{parent.lineno}")
                if isinstance(func.value, ast.Name) and \
                        func.value.id == "hashlib":
                    return f"hashed at line {parent.lineno}"
        return None

    @staticmethod
    def _enclosing_scope(node: ast.AST,
                         parents: Dict[ast.AST, ast.AST]) -> ast.AST:
        scope: Optional[ast.AST] = node
        while scope is not None and not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            scope = parents.get(scope)
        return scope if scope is not None else node
