"""Intra-procedural dataflow: interval interpretation and the rules it
powers (R010 vector key-budget proof, R012 wire conformance).

This module is the *engine* half of the dataflow layer: an abstract
interpreter over :mod:`ast` using the :mod:`~repro.staticcheck.intervals`
domain, plus the two project rules that consume it.  The numpy dtype
half lives in :mod:`~repro.staticcheck.nptypes`.

The interpreter is deliberately intra-procedural — calls evaluate to
:data:`~repro.staticcheck.intervals.TOP` unless they are one of the
handful of pure builtins the key-layout code uses (``max``, ``min``,
``len``, ``abs``, ``int``, ``getattr`` with a default,
``.bit_length()``).  Guard refinement makes it path-sensitive: ``if not
0 <= x <= C: raise`` bounds ``x`` on the fall-through path.

Everything here is stdlib-only; see the module docstring of
:mod:`~repro.staticcheck.intervals` for the shared soundness contract
("unsound toward silence").
"""

from __future__ import annotations

import ast
import re
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .engine import ModuleInfo
from .intervals import (TOP, Interval, apply_binop, const,
                        refine_by_compare)
from .rules import Rule
from .violations import Violation

if TYPE_CHECKING:
    from .callgraph import ProjectIndex

__all__ = [
    "IntervalInterpreter",
    "const_env",
    "PackedKeyProofRule",
    "WireConformanceRule",
]

#: name -> (interval, line the binding was established on).
Env = Dict[str, Tuple[Interval, int]]


# ---------------------------------------------------------------------------
# The abstract interpreter


class IntervalInterpreter:
    """Abstract interpreter for one function body over integer intervals.

    ``consts`` seeds module-level constants (read-only), ``seeds`` the
    parameter environment.  ``attr_assumptions`` and ``len_assumptions``
    let a rule inject domain facts the AST cannot carry — e.g. "every
    ``.period`` attribute is in ``[1, max_period]``" when replaying
    ``sim/vector.py``'s ``_key_layout`` under the workload generator's
    defaults.

    Loops are handled soundly without a full fixpoint: every name the
    loop body assigns is widened to TOP before one abstract pass of the
    body, and the result is joined with the pre-loop environment.
    """

    def __init__(self, consts: Optional[Dict[str, Interval]] = None,
                 seeds: Optional[Env] = None,
                 attr_assumptions: Optional[Dict[str, Interval]] = None,
                 len_assumptions: Optional[Dict[str, Interval]] = None
                 ) -> None:
        self.consts = dict(consts or {})
        self.env: Env = dict(seeds or {})
        self.attr_assumptions = dict(attr_assumptions or {})
        self.len_assumptions = dict(len_assumptions or {})
        #: Every ``return`` value seen: an Interval, or a tuple of
        #: Intervals for ``return a, b, c``.
        self.returns: List[object] = []

    # -- expression evaluation ---------------------------------------

    def eval(self, node: ast.expr) -> Interval:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return const(int(node.value))
            if isinstance(node.value, int):
                return const(node.value)
            return TOP
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if bound is not None:
                return bound[0]
            return self.consts.get(node.id, TOP)
        if isinstance(node, ast.BinOp):
            return apply_binop(node.op, self.eval(node.left),
                               self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return self.eval(node.operand).neg()
            if isinstance(node.op, ast.Not):
                return Interval(0, 1)
            if isinstance(node.op, ast.UAdd):
                return self.eval(node.operand)
            return TOP
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self.attr_assumptions.get(node.attr, TOP)
        if isinstance(node, ast.IfExp):
            return self.eval(node.body).join(self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            out = self.eval(node.values[0])
            for value in node.values[1:]:
                out = out.join(self.eval(value))
            return out
        if isinstance(node, ast.Compare):
            return Interval(0, 1)
        return TOP

    def _eval_call(self, node: ast.Call) -> Interval:
        func = node.func
        # Method calls: only int.bit_length() is modelled.
        if isinstance(func, ast.Attribute):
            if func.attr == "bit_length" and not node.args:
                return self.eval(func.value).bit_length()
            return TOP
        if not isinstance(func, ast.Name):
            return TOP
        name = func.id
        if name in ("max", "min"):
            if len(node.args) == 1 and isinstance(
                    node.args[0], (ast.GeneratorExp, ast.ListComp)):
                # max(t.period for t in tasks): the result is some
                # element, so the element's interval bounds it.
                return self.eval(node.args[0].elt)
            if len(node.args) >= 2:
                return self._fold_extremum(name, node.args)
            return TOP
        if name == "len" and len(node.args) == 1 and \
                isinstance(node.args[0], ast.Name):
            return self.len_assumptions.get(node.args[0].id,
                                            Interval(0, None))
        if name == "abs" and len(node.args) == 1:
            inner = self.eval(node.args[0])
            if inner.is_empty():
                return inner
            if inner.nonneg():
                return inner
            return inner.join(inner.neg()).meet(Interval(0, None))
        if name == "int" and len(node.args) == 1:
            return self.eval(node.args[0])
        if name == "getattr" and len(node.args) == 3 and \
                isinstance(node.args[1], ast.Constant) and \
                isinstance(node.args[1].value, str):
            assumed = self.attr_assumptions.get(node.args[1].value, TOP)
            return assumed.join(self.eval(node.args[2]))
        return TOP

    def _fold_extremum(self, name: str,
                       args: Sequence[ast.expr]) -> Interval:
        """Elementwise max/min over evaluated argument intervals."""
        ivs = [self.eval(a) for a in args]
        if any(iv.is_empty() for iv in ivs):
            return TOP
        pick = max if name == "max" else min
        los = [iv.lo for iv in ivs]
        his = [iv.hi for iv in ivs]
        if name == "max":
            # lo: max ignores -inf sides; hi: any +inf side wins.
            known_los = [lo for lo in los if lo is not None]
            lo = pick(known_los) if known_los else None
            hi = None if any(h is None for h in his) else pick(his)
        else:
            known_his = [h for h in his if h is not None]
            hi = pick(known_his) if known_his else None
            lo = None if any(lo is None for lo in los) else pick(los)
        return Interval(lo, hi)

    # -- statement execution -----------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt]) -> bool:
        """Abstractly execute ``stmts``; True when control falls through
        the end (no unconditional raise/return on every path)."""
        for stmt in stmts:
            if not self._exec_stmt(stmt):
                return False
        return True

    def _exec_stmt(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value, stmt)
            return True
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value)
                self._bind_target(stmt.target, value, stmt)
            return True
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = self.eval(ast.copy_location(
                    ast.Name(id=stmt.target.id, ctx=ast.Load()), stmt))
                updated = apply_binop(stmt.op, current,
                                      self.eval(stmt.value))
                self.env[stmt.target.id] = (updated, stmt.lineno)
            else:
                self.eval(stmt.value)
            return True
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt)
        if isinstance(stmt, ast.Assert):
            if isinstance(stmt.test, ast.Compare):
                self._apply_refinements(
                    refine_by_compare(stmt.test, self.eval))
            return True
        if isinstance(stmt, (ast.Raise, ast.Return)):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if isinstance(stmt.value, ast.Tuple):
                    self.returns.append(tuple(
                        self.eval(e) for e in stmt.value.elts))
                else:
                    self.returns.append(self.eval(stmt.value))
            return False
        if isinstance(stmt, (ast.While, ast.For)):
            return self._exec_loop(stmt)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt)
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return True
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Pass,
                             ast.Global, ast.Nonlocal, ast.Import,
                             ast.ImportFrom)):
            return True
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            return self.exec_block(stmt.body)
        # Nested defs/classes, del, match, …: skip their bodies but
        # kill any name they (re)bind, staying sound.
        for name in _assigned_names(stmt):
            self.env[name] = (TOP, stmt.lineno)
        return True

    def _bind_target(self, target: ast.expr, value: Interval,
                     stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = (value, stmt.lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            values: Sequence[Interval]
            if isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.value, ast.Tuple) and \
                    len(stmt.value.elts) == len(target.elts):
                values = [self.eval(e) for e in stmt.value.elts]
            else:
                values = [TOP] * len(target.elts)
            for sub, sub_value in zip(target.elts, values):
                self._bind_target(sub, sub_value, stmt)
        # Attribute / Subscript targets: no named binding to track.

    def _apply_refinements(
            self, refinements: Dict[str, Tuple[Interval, int]]) -> None:
        for name, (interval, lineno) in refinements.items():
            self.env[name] = (interval, lineno)

    def _branch_refinements(self, test: ast.expr, *, negated: bool
                            ) -> Dict[str, Tuple[Interval, int]]:
        """Refinements implied by ``test`` being true (or false)."""
        if isinstance(test, ast.Compare):
            return refine_by_compare(test, self.eval, negated=negated)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._branch_refinements(test.operand,
                                            negated=not negated)
        if isinstance(test, ast.Name):
            if negated:  # `if x:` false branch -> x == 0 (for ints)
                current = self.eval(test)
                refined = current.meet(const(0))
                return {test.id: (refined, test.lineno)}
            return {}
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) \
                and not negated:
            out: Dict[str, Tuple[Interval, int]] = {}
            for value in test.values:
                for name, ref in self._branch_refinements(
                        value, negated=False).items():
                    prev = out.get(name)
                    if prev is not None:
                        ref = (prev[0].meet(ref[0]), ref[1])
                    out[name] = ref
            return out
        return {}

    def _exec_if(self, stmt: ast.If) -> bool:
        true_env = dict(self.env)
        false_env = dict(self.env)

        saved = self.env
        self.env = true_env
        self._apply_refinements(
            self._branch_refinements(stmt.test, negated=False))
        true_falls = self.exec_block(stmt.body)

        self.env = false_env
        self._apply_refinements(
            self._branch_refinements(stmt.test, negated=True))
        false_falls = self.exec_block(stmt.orelse) if stmt.orelse else True

        self.env = saved
        if true_falls and false_falls:
            self.env.clear()
            self.env.update(_join_envs(true_env, false_env))
            return True
        if true_falls:
            self.env.clear()
            self.env.update(true_env)
            return True
        if false_falls:
            self.env.clear()
            self.env.update(false_env)
            return True
        return False

    def _exec_loop(self, stmt) -> bool:
        pre_env = dict(self.env)
        assigned = set()
        for sub in stmt.body:
            assigned |= _assigned_names(sub)
        if isinstance(stmt, ast.For):
            target_iv = TOP
            if isinstance(stmt.iter, ast.Call) and \
                    isinstance(stmt.iter.func, ast.Name) and \
                    stmt.iter.func.id == "range" and \
                    1 <= len(stmt.iter.args) <= 2:
                args = [self.eval(a) for a in stmt.iter.args]
                if len(args) == 1:
                    lo_iv, hi_iv = const(0), args[0]
                else:
                    lo_iv, hi_iv = args
                if lo_iv.lo is not None and hi_iv.hi is not None:
                    target_iv = Interval(lo_iv.lo, hi_iv.hi - 1)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = (target_iv, stmt.lineno)
            else:
                for name in _target_names(stmt.target):
                    self.env[name] = (TOP, stmt.lineno)
        for name in assigned:
            self.env[name] = (TOP, stmt.lineno)
        self.exec_block(stmt.body)
        if stmt.orelse:
            self.exec_block(stmt.orelse)
        merged = _join_envs(pre_env, self.env)
        self.env.clear()
        self.env.update(merged)
        return True

    def _exec_try(self, stmt: ast.Try) -> bool:
        assigned: Set[str] = set()
        for sub in stmt.body + [h for handler in stmt.handlers
                                for h in handler.body]:
            assigned |= _assigned_names(sub)
        body_falls = self.exec_block(stmt.body)
        for name in assigned:
            self.env[name] = (TOP, stmt.lineno)
        handler_falls = any(self.exec_block(list(h.body))
                            for h in stmt.handlers) if stmt.handlers \
            else False
        falls = body_falls or handler_falls or not stmt.handlers
        if stmt.finalbody:
            falls = self.exec_block(stmt.finalbody) and falls
        return falls


def _join_envs(left: Env, right: Env) -> Env:
    out: Env = {}
    for name in set(left) | set(right):
        a, b = left.get(name), right.get(name)
        if a is None or b is None:
            bound = a or b
            assert bound is not None
            out[name] = (bound[0].join(TOP), bound[1])
        else:
            out[name] = (a[0].join(b[0]), max(a[1], b[1]))
    return out


def _assigned_names(stmt: ast.stmt) -> Set[str]:
    """Names (re)bound anywhere inside ``stmt``, for sound loop/try
    widening."""
    out: Set[str] = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                out |= _target_names(target)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            out |= _target_names(sub.target)
        elif isinstance(sub, ast.For):
            out |= _target_names(sub.target)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            out.add(sub.name)
        elif isinstance(sub, ast.withitem) and sub.optional_vars:
            out |= _target_names(sub.optional_vars)
    return out


def _target_names(target: ast.expr) -> Set[str]:
    out: Set[str] = set()
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
    return out


def const_env(tree: ast.Module) -> Dict[str, Interval]:
    """Interval environment of a module's top-level constant assigns,
    evaluated in source order (``_PAD_KEY = 1 << MAX_KEY_BITS`` works)."""
    interp = IntervalInterpreter()
    env: Dict[str, Interval] = {}
    for node in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if isinstance(target, ast.Name) and value is not None:
            interp.consts = env
            result = interp.eval(value)
            if not result.is_top():
                env[target.id] = result
    return env


# ---------------------------------------------------------------------------
# R010 — vector narrow-key budget proof


class PackedKeyProofRule(Rule):
    """Prove — not spot-check — that the vector kernel's narrow PD² key
    never overflows.

    Two sub-proofs over the real source (no hand-maintained constants):

    1. **Vector engagement floor**: replaying ``sim/vector.py``'s
       ``_key_layout`` under the workload generator's ``max_period``
       defaults (periods ≤ the default ``max_period``, horizon ≤ 2**24,
       ≤ 64 tasks) proves the narrow per-chunk key fits
       ``MAX_KEY_BITS`` — i.e. the runtime ``supports()`` gate is not
       vacuously rejecting the default campaigns, and widening
       ``max_period`` fails here at lint time.
    2. **Sentinel consistency**: ``MAX_KEY_BITS <= 62`` (one bit below
       int64's sign after the pad) and ``_PAD_KEY == 1 << MAX_KEY_BITS``.

    Violations anchor at the *witness origin* — the line where the
    unprovable value enters (a generator default) — with the full chain
    to the overflow sink in the message, so pragmas and baseline entries
    suppress at the origin.
    """

    rule_id = "R010"
    name = "packed-key-proof"
    description = ("dataflow proof that the vector kernel's narrow key "
                   "fits its bit budget under the generator defaults")
    uses_project = True

    GENERATOR = "workload/generator.py"
    DISTRIBUTIONS = "workload/distributions.py"
    VECTOR = "sim/vector.py"

    #: Engagement-floor assumptions for sub-proof 1: the static claim is
    #: "default campaigns engage the vector kernel", quantified over
    #: horizons up to 2**24 slots and task sets up to 64 tasks.
    H_FLOOR_BITS = 24
    N_FLOOR = 64

    def check_project(self, project: "ProjectIndex"
                      ) -> Iterator[Violation]:
        by_relpath = {table.info.relpath: table
                      for table in project.modules.values()}
        yield from self._check_vector_floor(by_relpath)
        vector = by_relpath.get(self.VECTOR)
        if vector is not None:
            yield from self._check_pad_sentinel(vector.info)

    def _generator_defaults(self, by_relpath: Dict[str, object]
                            ) -> List[Tuple[int, int, str]]:
        """``(value, lineno, relpath)`` for every max_period default."""
        out: List[Tuple[int, int, str]] = []
        generator = by_relpath.get(self.GENERATOR)
        if generator is not None:
            found = _int_default(generator.info.tree, "__init__",
                                 "max_period", method_of="TaskSetGenerator")
            if found is not None:
                out.append((*found, self.GENERATOR))
        distributions = by_relpath.get(self.DISTRIBUTIONS)
        if distributions is not None:
            found = _int_default(distributions.info.tree,
                                 "log_uniform_periods", "max_period")
            if found is not None:
                out.append((*found, self.DISTRIBUTIONS))
        return out

    # -- sub-proof 1: vector per-chunk key budget ---------------------

    def _check_vector_floor(self, by_relpath: Dict[str, object]
                            ) -> Iterator[Violation]:
        vector = by_relpath.get(self.VECTOR)
        if vector is None:
            return
        defaults = self._generator_defaults(by_relpath)
        if not defaults:
            return
        layout = _find_function(vector.info.tree, "_key_layout")
        supports = _find_function(vector.info.tree, "supports",
                                  method_of="VectorPD2Simulator")
        consts = const_env(vector.info.tree)
        max_bits = consts.get("MAX_KEY_BITS", TOP).is_const()
        if layout is None or max_bits is None:
            yield Violation(
                path=self.VECTOR, line=1, col=0, rule_id=self.rule_id,
                message="cannot locate _key_layout / constant "
                        "MAX_KEY_BITS to prove the per-chunk key budget")
            return
        if supports is not None and not any(
                isinstance(sub, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "MAX_KEY_BITS"
                    for n in ast.walk(sub))
                for sub in ast.walk(supports)):
            yield Violation(
                path=self.VECTOR, line=supports.lineno, col=0,
                rule_id=self.rule_id,
                message="supports() no longer gates on MAX_KEY_BITS — "
                        "the runtime guard for the per-chunk key "
                        "narrowing proof is gone")
        # Worst period across the generator defaults: the proof must
        # hold for whichever distribution produces the longest periods.
        worst = max(defaults, key=lambda d: d[0])
        period_hi, default_line, default_path = worst
        horizon = Interval(1, 1 << self.H_FLOOR_BITS)
        interp = IntervalInterpreter(
            consts=consts,
            attr_assumptions={"period": Interval(1, period_hi),
                              "phase": Interval(0, period_hi)},
            len_assumptions={"tasks": Interval(1, self.N_FLOOR)})
        for arg in _all_args(layout):
            interp.env[arg.arg] = (TOP, arg.lineno)
        if "horizon" in interp.env:
            interp.env["horizon"] = (horizon, layout.lineno)
        interp.exec_block(layout.body)
        total: Interval = TOP
        for ret in interp.returns:
            if isinstance(ret, tuple) and len(ret) == 4:
                total = ret[3] if total is TOP else total.join(ret[3])
        if total.within(0, max_bits):
            return
        max_bits_line = _const_line(vector.info.tree, "MAX_KEY_BITS")
        yield Violation(
            path=default_path, line=default_line, col=0,
            rule_id=self.rule_id,
            message=f"cannot prove the vector key budget: periods ≤ "
                    f"max_period={period_hi} (default at line "
                    f"{default_line}) -> _key_layout "
                    f"({self.VECTOR}:{layout.lineno}, horizon ≤ "
                    f"2**{self.H_FLOOR_BITS}, ≤ {self.N_FLOOR} tasks) "
                    f"-> total bits ∈ {total.describe()} -> exceeds "
                    f"MAX_KEY_BITS={max_bits} ({self.VECTOR}:"
                    f"{max_bits_line}) -> supports() would reject "
                    f"default campaigns (vector kernel disengaged)")

    # -- sub-proof 2: pad sentinel ------------------------------------

    def _check_pad_sentinel(self, module: ModuleInfo
                            ) -> Iterator[Violation]:
        consts = const_env(module.tree)
        max_bits = consts.get("MAX_KEY_BITS", TOP).is_const()
        pad = consts.get("_PAD_KEY", TOP).is_const()
        if max_bits is None or pad is None:
            return
        if max_bits > 62:
            yield Violation(
                path=module.relpath,
                line=_const_line(module.tree, "MAX_KEY_BITS"), col=0,
                rule_id=self.rule_id,
                message=f"MAX_KEY_BITS={max_bits} > 62: keys plus the "
                        f"pad sentinel no longer fit a signed int64")
        if pad != (1 << max_bits):
            yield Violation(
                path=module.relpath,
                line=_const_line(module.tree, "_PAD_KEY"), col=0,
                rule_id=self.rule_id,
                message=f"_PAD_KEY={pad} != 1 << MAX_KEY_BITS "
                        f"(= {1 << max_bits}): the pad no longer "
                        f"dominates every real key")


# ---------------------------------------------------------------------------
# AST lookup helpers shared by R010/R012


def _all_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node


def _all_args(func: ast.FunctionDef) -> List[ast.arg]:
    a = func.args
    return list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs) + \
        ([a.vararg] if a.vararg else []) + \
        ([a.kwarg] if a.kwarg else [])


def _find_function(tree: ast.Module, name: str, *,
                   method_of: Optional[str] = None
                   ) -> Optional[ast.FunctionDef]:
    scope: Sequence[ast.stmt] = tree.body
    if method_of is not None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == method_of:
                scope = node.body
                break
        else:
            return None
    for node in scope:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _int_default(tree: ast.Module, func: str, arg: str, *,
                 method_of: Optional[str] = None
                 ) -> Optional[Tuple[int, int]]:
    """``(value, lineno)`` of an int default for ``arg`` of ``func``."""
    node = _find_function(tree, func, method_of=method_of)
    if node is None:
        return None
    args = node.args
    for arg_list, defaults in (
            (args.posonlyargs + args.args, args.defaults),
            (args.kwonlyargs, args.kw_defaults)):
        named = arg_list[len(arg_list) - len(defaults):] \
            if defaults is args.defaults else arg_list
        for a, d in zip(named, defaults):
            if a.arg == arg and isinstance(d, ast.Constant) and \
                    isinstance(d.value, int):
                return d.value, d.lineno
    return None


def _const_line(tree: ast.Module, name: str) -> int:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id == name:
            return node.lineno
    return 1


# ---------------------------------------------------------------------------
# R012 — wire-protocol conformance


#: Envelope fields present on every frame; not part of any verb payload.
_ENVELOPE_FIELDS = {"id", "verb", "ok", "error", "heartbeat", "version"}

#: Wire-format tags look like ``repro-campaign-run-v1``.
_FORMAT_TAG_RE = re.compile(r"^repro-[a-z0-9-]+-v\d+$")


class _ModuleWire:
    """Everything R012 extracts from one module."""

    __slots__ = ("relpath", "package", "registries", "parse_calls",
                 "handled", "emissions", "read_keys", "tree")

    def __init__(self, info: ModuleInfo) -> None:
        self.relpath = info.relpath
        self.package = info.package
        self.tree = info.tree
        #: registry name -> {verb: lineno}
        self.registries: Dict[str, Dict[str, int]] = {}
        #: registry names this module feeds into parse_request (+ line).
        self.parse_calls: List[Tuple[str, int]] = []
        #: verb string -> first comparison lineno.
        self.handled: Dict[str, int] = {}
        #: (verb, fields, lineno) emitted by this module.
        self.emissions: List[Tuple[str, Set[str], int]] = []
        #: every string constant in the module (lax read-side model).
        self.read_keys: Set[str] = set()


class WireConformanceRule(Rule):
    """The JSON-lines wire protocol stays closed under evolution.

    Five conformance checks across ``service/`` and ``distrib/`` (plus
    format tags in ``campaign/`` and ``analysis/``):

    1. every verb registered in a ``*VERBS`` tuple has a matching
       ``verb == "..."`` handler branch in some module that feeds that
       registry into ``parse_request`` — a verb you can send but nobody
       answers is a protocol hole;
    2. no handler branch compares against a verb its registry does not
       admit (phantom handlers are dead code that hides protocol drift);
    3. every emitted verb (dict literals with a ``"verb"`` key,
       ``client.request("...")`` calls, ``**builder()`` merges) is
       admitted by the registry its receiving package serves;
    4. every non-envelope field an emitted request carries appears as a
       string constant somewhere on the receiving side (encoder/decoder
       field symmetry, request direction);
    5. modules that define wire-format tags (``repro-…-v1``) never
       ``json.load`` a payload and read its keys without checking the
       ``"format"`` tag first.

    Like every dataflow rule, unsound toward silence: dynamically built
    frames evaluate to "unknown" and are skipped, never guessed at.
    """

    rule_id = "R012"
    name = "wire-conformance"
    description = ("every emitted wire verb has a registered handler, "
                   "field sets are symmetric, format tags are checked")
    uses_project = True

    PACKAGES = ("service", "distrib", "campaign", "analysis")
    #: Only service/distrib speak the verb protocol; campaign/analysis
    #: are in scope for format-tag checking alone.
    VERB_PACKAGES = ("service", "distrib")

    def check_project(self, project: "ProjectIndex"
                      ) -> Iterator[Violation]:
        wires: List[_ModuleWire] = []
        for table in project.modules.values():
            info = table.info
            if info.package not in self.PACKAGES:
                continue
            wires.append(self._extract(info, project))
        yield from self._check_verbs(wires)
        yield from self._check_format_tags(wires)

    # -- extraction ---------------------------------------------------

    def _extract(self, info: ModuleInfo,
                 project: "ProjectIndex") -> _ModuleWire:
        wire = _ModuleWire(info)
        for node in info.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id.endswith("VERBS") \
                    and isinstance(node.value, (ast.Tuple, ast.List)):
                verbs: Dict[str, int] = {}
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and \
                            isinstance(elt.value, str):
                        verbs[elt.value] = elt.lineno
                if verbs:
                    wire.registries[node.targets[0].id] = verbs
        # Emission-dict keys must not count as "read" keys: a frame
        # builder mentioning its own field names would otherwise satisfy
        # the symmetry check for every field it emits.
        emitted_key_ids: Set[int] = set()
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Compare):
                self._extract_handled(node, wire)
            if isinstance(node, ast.Call):
                self._extract_call(node, wire, info, project)
            if isinstance(node, ast.Dict):
                self._extract_dict(node, wire, info, project,
                                   emitted_key_ids)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    id(node) not in emitted_key_ids:
                wire.read_keys.add(node.value)
        return wire

    def _extract_handled(self, node: ast.Compare,
                         wire: _ModuleWire) -> None:
        if len(node.ops) != 1 or \
                not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            return
        sides = (node.left, node.comparators[0])
        names = [s for s in sides if isinstance(s, ast.Name)]
        consts = [s for s in sides if isinstance(s, ast.Constant)
                  and isinstance(s.value, str)]
        if len(names) == 1 and len(consts) == 1 and \
                names[0].id == "verb":
            wire.handled.setdefault(consts[0].value, node.lineno)

    def _extract_call(self, node: ast.Call, wire: _ModuleWire,
                      info: ModuleInfo,
                      project: "ProjectIndex") -> None:
        func = node.func
        fname = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if fname == "parse_request":
            registry = "VERBS"
            for kw in node.keywords:
                if kw.arg == "verbs" and isinstance(kw.value, ast.Name):
                    registry = kw.value.id
            wire.parse_calls.append((registry, node.lineno))
        elif fname == "request":
            # Client stubs: self.request("admit", tasks=..., dry_run=...)
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                fields = {kw.arg for kw in node.keywords
                          if kw.arg is not None}
                wire.emissions.append(
                    (node.args[0].value, fields, node.lineno))

    def _extract_dict(self, node: ast.Dict, wire: _ModuleWire,
                      info: ModuleInfo, project: "ProjectIndex",
                      emitted_key_ids: Set[int]) -> None:
        verb: Optional[str] = None
        fields: Set[str] = set()
        key_ids: List[int] = []
        for key, value in zip(node.keys, node.values):
            if key is None:
                # {**builder(...), "id": n}: merge the keys of the
                # called builder's returned dict literal, when the
                # builder resolves statically inside the project.
                merged = self._builder_dict(value, project)
                if merged is not None:
                    mverb, mfields = merged
                    if mverb is not None:
                        verb = mverb
                    fields |= mfields
                continue
            if isinstance(key, ast.Constant) and \
                    isinstance(key.value, str):
                key_ids.append(id(key))
                if key.value == "verb" and \
                        isinstance(value, ast.Constant) and \
                        isinstance(value.value, str):
                    verb = value.value
                else:
                    fields.add(key.value)
        if verb is not None:
            emitted_key_ids.update(key_ids)
            wire.emissions.append((verb, fields - _ENVELOPE_FIELDS,
                                   node.lineno))

    def _builder_dict(self, value: ast.expr, project: "ProjectIndex"
                      ) -> Optional[Tuple[Optional[str], Set[str]]]:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        fname = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if fname is None:
            return None
        for fn in project.functions.values():
            if fn.qname.rsplit(".", 1)[-1] != fname or \
                    not isinstance(fn.node, ast.FunctionDef):
                continue
            for sub in ast.walk(fn.node):
                if isinstance(sub, ast.Return) and \
                        isinstance(sub.value, ast.Dict):
                    verb: Optional[str] = None
                    fields: Set[str] = set()
                    for key, val in zip(sub.value.keys, sub.value.values):
                        if isinstance(key, ast.Constant) and \
                                isinstance(key.value, str):
                            if key.value == "verb" and \
                                    isinstance(val, ast.Constant) and \
                                    isinstance(val.value, str):
                                verb = val.value
                            else:
                                fields.add(key.value)
                    return verb, fields - _ENVELOPE_FIELDS
        return None

    # -- conformance checks -------------------------------------------

    def _check_verbs(self, wires: List[_ModuleWire]
                     ) -> Iterator[Violation]:
        verb_wires = [w for w in wires
                      if w.package in self.VERB_PACKAGES]
        # registry name -> (defining wire, {verb: lineno})
        registries: Dict[str, Tuple[_ModuleWire, Dict[str, int]]] = {}
        for w in verb_wires:
            for name, verbs in w.registries.items():
                registries[name] = (w, verbs)
        # registry name -> handler wires (modules feeding it into
        # parse_request), with the call line for the witness chain.
        handlers: Dict[str, List[Tuple[_ModuleWire, int]]] = {}
        for w in verb_wires:
            for registry, lineno in w.parse_calls:
                if registry in registries:
                    handlers.setdefault(registry, []).append((w, lineno))

        # 1. registered verb nobody handles.
        for name, (owner, verbs) in registries.items():
            sites = handlers.get(name)
            if not sites:
                continue  # no parse_request caller in this tree: skip
            for verb, lineno in verbs.items():
                if any(verb in w.handled for w, _ in sites):
                    continue
                w, call_line = sites[0]
                yield Violation(
                    path=owner.relpath, line=lineno, col=0,
                    rule_id=self.rule_id,
                    message=f"verb '{verb}' registered in {name} "
                            f"(line {lineno}) -> parse_request admits "
                            f"it at {w.relpath}:{call_line} -> no "
                            f"`verb == \"{verb}\"` handler branch in "
                            + " or ".join(sorted({hw.relpath
                                                  for hw, _ in sites})))

        # 2. handler branch for a verb outside its registry.
        for w in verb_wires:
            served: Set[str] = set()
            for registry, _ in w.parse_calls:
                if registry in registries:
                    served |= set(registries[registry][1])
            if not served:
                continue
            for verb, lineno in w.handled.items():
                if verb not in served:
                    regs = ", ".join(sorted(
                        r for r, _ in w.parse_calls if r in registries))
                    yield Violation(
                        path=w.relpath, line=lineno, col=0,
                        rule_id=self.rule_id,
                        message=f"handler branch for verb '{verb}' "
                                f"(line {lineno}) -> parse_request "
                                f"here only admits {regs} -> "
                                f"'{verb}' can never arrive (phantom "
                                f"handler, protocol drift)")

        # 3 + 4. emissions: verb admitted, fields readable.
        for w in verb_wires:
            for verb, fields, lineno in w.emissions:
                target = self._target_registry(w, verb, registries)
                if target is None:
                    continue
                name, owner, verbs = target
                if verb not in verbs:
                    yield Violation(
                        path=w.relpath, line=lineno, col=0,
                        rule_id=self.rule_id,
                        message=f"emits verb '{verb}' (line {lineno}) "
                                f"-> receiving registry {name} "
                                f"({owner.relpath}) does not admit it "
                                f"-> receiver replies unknown-verb")
                    continue
                readers = [hw for hw, _ in handlers.get(name, [])]
                readers.append(owner)
                readable: Set[str] = set()
                for r in readers:
                    readable |= r.read_keys
                for field_name in sorted(fields - _ENVELOPE_FIELDS):
                    if field_name not in readable:
                        reader_names = " or ".join(sorted(
                            {r.relpath for r in readers}))
                        yield Violation(
                            path=w.relpath, line=lineno, col=0,
                            rule_id=self.rule_id,
                            message=f"verb '{verb}' request field "
                                    f"'{field_name}' (line {lineno}) "
                                    f"-> never read on the receiving "
                                    f"side ({reader_names}) -> silently "
                                    f"dropped payload")

    def _target_registry(
            self, w: _ModuleWire, verb: str,
            registries: Dict[str, Tuple[_ModuleWire, Dict[str, int]]]
    ) -> Optional[Tuple[str, _ModuleWire, Dict[str, int]]]:
        """Which registry an emission from ``w`` must satisfy: the one
        defined in the same package, else the unique registry admitting
        the verb, else unknown (skip — unsound toward silence)."""
        same_pkg = [(name, owner, verbs)
                    for name, (owner, verbs) in registries.items()
                    if owner.package == w.package]
        if len(same_pkg) == 1:
            return same_pkg[0]
        admitting = [(name, owner, verbs)
                     for name, (owner, verbs) in registries.items()
                     if verb in verbs]
        if len(admitting) == 1:
            return admitting[0]
        return None

    # -- format-tag discipline ----------------------------------------

    def _check_format_tags(self, wires: List[_ModuleWire]
                           ) -> Iterator[Violation]:
        for w in wires:
            tags = [k for k in w.read_keys if _FORMAT_TAG_RE.match(k)]
            if not tags:
                continue
            for func in _all_functions(w.tree):
                yield from self._check_tagged_reader(w, func)

    def _check_tagged_reader(self, w: _ModuleWire,
                             func: ast.FunctionDef
                             ) -> Iterator[Violation]:
        loads_line: Optional[int] = None
        reads_keys = False
        checks_format = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and \
                        f.attr in ("load", "loads") and \
                        isinstance(f.value, ast.Name) and \
                        f.value.id == "json":
                    loads_line = loads_line or node.lineno
                if isinstance(f, ast.Attribute) and f.attr == "get" \
                        and node.args and \
                        isinstance(node.args[0], ast.Constant) and \
                        isinstance(node.args[0].value, str):
                    if node.args[0].value == "format":
                        checks_format = True
                    else:
                        reads_keys = True
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.slice, ast.Constant) and \
                    isinstance(node.slice.value, str):
                if node.slice.value == "format":
                    checks_format = True
                else:
                    reads_keys = True
            elif isinstance(node, ast.Constant) and \
                    node.value == "format":
                checks_format = True
        if loads_line is not None and reads_keys and not checks_format:
            yield Violation(
                path=w.relpath, line=loads_line, col=0,
                rule_id=self.rule_id,
                message=f"{func.name} json-decodes a payload (line "
                        f"{loads_line}) -> reads its keys -> never "
                        f"checks the \"format\" tag -> a stale or "
                        f"foreign file deserializes silently")
