"""Numpy dtype propagation and the semantic dtype-soundness rule (R011).

R001 polices the vector kernel *lexically* — no float literals, no
``np.divide`` — but a lexically clean expression can still promote
silently: ``np.zeros(n)`` is float64, ``uint64 < int64`` compares
through float64, and ``int32 + int64`` widens mid-sort-key.  This module
infers a dtype for every expression in the kernel files by propagating
through constructors, ufuncs, ``astype`` and indexing, and flags the
promotions numpy performs without being asked.

The dtype domain is a flat lattice of strings (``"int64"``,
``"float64"``, ``"bool"``, …) plus the Python scalar kinds (``"pyint"``,
``"pyfloat"``, ``"pybool"``) and ``None`` for unknown.  Like the
interval domain this is stdlib-only — numpy is *modelled*, never
imported — and unsound toward silence: an unknown operand silences the
check rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import ModuleInfo
from .rules import Rule, _import_aliases
from .violations import Violation

__all__ = ["NumpyDtypeRule", "infer_function"]

_INT_DTYPES = {"int8", "int16", "int32", "int64",
               "uint8", "uint16", "uint32", "uint64"}
_FLOAT_DTYPES = {"float16", "float32", "float64"}
_ARRAY_DTYPES = _INT_DTYPES | _FLOAT_DTYPES | {"bool", "complex128",
                                               "object"}

_WIDTH = {"int8": 8, "int16": 16, "int32": 32, "int64": 64,
          "uint8": 8, "uint16": 16, "uint32": 32, "uint64": 64}

#: np functions returning int64 (indices/counts) regardless of input.
_INDEX_FNS = {"argsort", "lexsort", "flatnonzero", "searchsorted",
              "argmin", "argmax", "bincount", "count_nonzero",
              "nonzero", "digitize"}
#: np functions preserving their first argument's dtype.
_PRESERVE_FNS = {"repeat", "diff", "append", "cumsum", "sort", "copy",
                 "abs", "clip", "roll", "flip", "ascontiguousarray"}
#: np functions whose result promotes float64 by design.
_FLOAT_FNS = {"mean", "std", "var", "average", "median", "divide",
              "true_divide", "sqrt", "exp", "log"}
#: The sort-key entry points whose arguments define a priority order.
_ORDER_FNS = {"argsort", "lexsort", "sort", "searchsorted"}

#: dtype node (``np.int64``, ``bool``, ``"int64"``) -> dtype string.
_DTYPE_NAMES = {"bool": "bool", "bool_": "bool",
                "int": "int64", "intp": "int64", "int_": "int64",
                "float": "float64", "float_": "float64",
                "int8": "int8", "int16": "int16", "int32": "int32",
                "int64": "int64", "uint8": "uint8", "uint16": "uint16",
                "uint32": "uint32", "uint64": "uint64",
                "float16": "float16", "float32": "float32",
                "float64": "float64", "object": "object",
                "object_": "object"}

#: dtype -> (dtype, origin line) environment.
DtypeEnv = Dict[str, Tuple[Optional[str], int]]


def _is_signed(dtype: str) -> bool:
    return dtype.startswith("int")


class _Finding:
    __slots__ = ("line", "message")

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message


class _Inferencer:
    """Per-function dtype inference for one module.

    ``attr_env`` carries ``self.<attr>`` dtypes collected over the whole
    class (conflicting assignments degrade to unknown), so methods can
    read columns ``__init__`` created.  Findings accumulate only when
    ``report`` is True — the attribute-collection pre-pass runs silent.
    """

    def __init__(self, np_aliases: Set[str],
                 attr_env: Optional[DtypeEnv] = None, *,
                 report: bool = True) -> None:
        self.np_aliases = np_aliases
        self.attr_env: DtypeEnv = dict(attr_env or {})
        self.env: DtypeEnv = {}
        self.report = report
        self.findings: List[_Finding] = []

    # -- helpers ------------------------------------------------------

    def _flag(self, node: ast.AST, message: str) -> None:
        if self.report:
            self.findings.append(
                _Finding(getattr(node, "lineno", 1), message))

    def _origin(self, node: ast.expr) -> str:
        """Witness fragment for an operand: its dtype and where that
        dtype was established."""
        dtype = self.eval(node, quiet=True)
        label = _src(node)
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if bound is not None:
                return f"{label}: {bound[0]} (assigned line {bound[1]})"
        if isinstance(node, ast.Attribute) and node.attr in self.attr_env:
            bound = self.attr_env[node.attr]
            return f"{label}: {bound[0]} (assigned line {bound[1]})"
        return f"{label}: {dtype}"

    def _is_np(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.np_aliases

    def _np_func(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute) and self._is_np(node.value):
            return node.attr
        return None

    def _parse_dtype(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute) and self._is_np(node.value):
            return _DTYPE_NAMES.get(node.attr)
        if isinstance(node, ast.Name):
            return _DTYPE_NAMES.get(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_NAMES.get(node.value)
        return None

    def _dtype_kwarg(self, node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return self._parse_dtype(kw.value)
        return None

    def promote(self, a: Optional[str], b: Optional[str],
                node: Optional[ast.expr] = None,
                operands: Tuple[Optional[ast.expr], Optional[ast.expr]]
                = (None, None)) -> Optional[str]:
        """Numpy's result dtype for ``a <op> b``; flags the silent
        promotions (uint64 vs signed, int array meeting a float)."""
        if a is None or b is None:
            return None
        if a == b:
            return a
        # Python scalars adopt the array dtype (value-based casting).
        for scalar, other in ((a, b), (b, a)):
            if scalar == "pyint" and (other in _INT_DTYPES
                                      or other == "bool"
                                      or other in _FLOAT_DTYPES):
                return "int64" if other == "bool" else other
            if scalar == "pybool":
                return other if other != "pyint" else "int64"
        if a == "pyint" and b == "pyint":
            return "pyint"
        for scalar, other, other_node in (
                (a, b, operands[1]), (b, a, operands[0])):
            if scalar == "pyfloat" and other in _INT_DTYPES:
                if node is not None:
                    self._flag(node, self._promo_chain(
                        node, operands, "a Python float meets an "
                        f"{other} array -> result silently promotes "
                        "to float64"))
                return "float64"
        if a == "bool" and b in _INT_DTYPES:
            return b
        if b == "bool" and a in _INT_DTYPES:
            return a
        if a in _FLOAT_DTYPES and b in _FLOAT_DTYPES:
            return a if _WIDTH.get(a, 64) >= _WIDTH.get(b, 64) else b
        for f, i in ((a, b), (b, a)):
            if f in _FLOAT_DTYPES and i in _INT_DTYPES:
                if node is not None:
                    self._flag(node, self._promo_chain(
                        node, operands, f"{i} meets {f} -> integer "
                        "operand silently becomes floating point"))
                return "float64"
        if a in _INT_DTYPES and b in _INT_DTYPES:
            if ("uint64" in (a, b)) and (_is_signed(a) or _is_signed(b)):
                if node is not None:
                    self._flag(node, self._promo_chain(
                        node, operands, "uint64 meets a signed integer "
                        "-> numpy promotes BOTH to float64 (exact "
                        "integers beyond 2**53 corrupt silently)"))
                return "float64"
            if a.startswith("uint") and b.startswith("uint"):
                return a if _WIDTH[a] >= _WIDTH[b] else b
            if _is_signed(a) and _is_signed(b):
                return a if _WIDTH[a] >= _WIDTH[b] else b
            return "int64"  # mixed signed/unsigned below 64 bits
        return None

    def _promo_chain(self, node: ast.expr,
                     operands: Tuple[Optional[ast.expr],
                                     Optional[ast.expr]],
                     consequence: str) -> str:
        parts = [self._origin(op) for op in operands if op is not None]
        parts.append(f"'{_src(node)}' (line "
                     f"{getattr(node, 'lineno', 1)}): {consequence}")
        return "silent dtype promotion: " + " -> ".join(parts)

    # -- expression inference ----------------------------------------

    def eval(self, node: ast.expr, *, quiet: bool = False
             ) -> Optional[str]:
        saved = self.report
        if quiet:
            self.report = False
        try:
            return self._eval(node)
        finally:
            self.report = saved

    def _eval(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "pybool"
            if isinstance(node.value, int):
                return "pyint"
            if isinstance(node.value, float):
                return "pyfloat"
            return None
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            return bound[0] if bound else None
        if isinstance(node, ast.Attribute):
            bound = self.attr_env.get(node.attr)
            return bound[0] if bound else None
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if isinstance(node.op, ast.Div):
                if left in _INT_DTYPES or right in _INT_DTYPES:
                    self._flag(node, self._promo_chain(
                        node, (node.left, node.right),
                        "true division always produces float64 — use "
                        "// for exact arithmetic"))
                    return "float64"
                return "pyfloat" if (left, right) == ("pyint", "pyint") \
                    else None
            return self.promote(left, right, node,
                                (node.left, node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.USub, ast.UAdd, ast.Invert)):
                return self._eval(node.operand)
            if isinstance(node.op, ast.Not):
                return "pybool"
            return None
        if isinstance(node, ast.Compare):
            kinds = [self._eval(node.left)] + \
                [self._eval(c) for c in node.comparators]
            concrete = [k for k in kinds if k in _INT_DTYPES]
            if "uint64" in concrete and any(_is_signed(k)
                                            for k in concrete):
                self._flag(node, self._promo_chain(
                    node, (node.left, node.comparators[0]),
                    "uint64 compared against a signed integer routes "
                    "through float64 — the comparison itself is inexact"))
            return "bool" if concrete else "pybool"
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            a, b = self._eval(node.body), self._eval(node.orelse)
            return a if a == b else None
        return None

    def _eval_call(self, node: ast.Call) -> Optional[str]:
        fn = self._np_func(node.func)
        if fn is not None:
            return self._eval_np_call(node, fn)
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value)
            if func.attr == "astype" and node.args:
                # Explicit conversion: an audited narrowing, not a
                # silent promotion — never flagged here.
                return self._parse_dtype(node.args[0])
            if func.attr in ("min", "max", "copy", "view", "ravel",
                            "reshape", "cumsum"):
                return base
            if func.attr in ("sum", "prod"):
                return "int64" if base in _INT_DTYPES or base == "bool" \
                    else base
            if func.attr in ("any", "all"):
                return "pybool"
            if func.attr == "mean":
                if base in _INT_DTYPES:
                    self._flag(node, f"'{_src(node)}' (line "
                               f"{node.lineno}): .mean() of an {base} "
                               "array silently promotes to float64")
                return "float64"
            return None
        if isinstance(func, ast.Name):
            if func.id == "int":
                return "pyint"
            if func.id == "bool":
                return "pybool"
            if func.id == "float":
                return "pyfloat"
            if func.id == "abs" and len(node.args) == 1:
                return self._eval(node.args[0])
            if func.id == "divmod" and len(node.args) == 2:
                return self.promote(self._eval(node.args[0]),
                                    self._eval(node.args[1]))
        return None

    def _eval_np_call(self, node: ast.Call, fn: str) -> Optional[str]:
        for arg in node.args:
            self._eval(arg)  # surface promotions inside arguments
        if fn in _ORDER_FNS:
            self._check_order_key(node)
        explicit = self._dtype_kwarg(node)
        if fn in ("zeros", "ones", "empty"):
            if explicit is not None:
                return explicit
            self._flag(node, f"'{_src(node)}' (line {node.lineno}): "
                       f"np.{fn} without dtype defaults to float64 — "
                       "the exact kernel just left int64 silently")
            return "float64"
        if fn == "full":
            if explicit is not None:
                return explicit
            fill = self._eval(node.args[1]) if len(node.args) > 1 \
                else None
            if fill == "pyint":
                return "int64"
            if fill == "pyfloat":
                self._flag(node, f"'{_src(node)}' (line {node.lineno})"
                           ": np.full with a float fill and no dtype "
                           "is silently float64")
                return "float64"
            return fill
        if fn == "arange":
            if explicit is not None:
                return explicit
            kinds = [self._eval(a) for a in node.args]
            if any(k == "pyfloat" for k in kinds):
                self._flag(node, f"'{_src(node)}' (line {node.lineno})"
                           ": np.arange with a float bound is silently "
                           "float64")
                return "float64"
            if kinds and all(k == "pyint" for k in kinds):
                return "int64"
            return "int64" if not node.args else None
        if fn in ("array", "asarray", "fromiter", "frombuffer",
                  "ascontiguousarray"):
            return explicit
        if fn in _INDEX_FNS:
            return "int64"
        if fn in ("where",):
            if len(node.args) == 3:
                return self.promote(self._eval(node.args[1]),
                                    self._eval(node.args[2]), node,
                                    (node.args[1], node.args[2]))
            return None
        if fn in ("maximum", "minimum", "fmax", "fmin"):
            if len(node.args) >= 2:
                return self.promote(self._eval(node.args[0]),
                                    self._eval(node.args[1]), node,
                                    (node.args[0], node.args[1]))
            return None
        if fn in _PRESERVE_FNS:
            return explicit or (self._eval(node.args[0])
                                if node.args else None)
        if fn == "concatenate":
            return explicit
        if fn == "divmod":
            return None  # handled as a tuple at the assignment
        if fn == "unique":
            return self._eval(node.args[0]) if node.args else None
        if fn in _FLOAT_FNS:
            operand = self._eval(node.args[0]) if node.args else None
            if operand in _INT_DTYPES or fn in ("divide",
                                                "true_divide"):
                self._flag(node, f"'{_src(node)}' (line {node.lineno})"
                           f": np.{fn} promotes to float64 — exact "
                           "integer arithmetic ends here")
            return "float64"
        return None

    def _check_order_key(self, node: ast.Call) -> None:
        """Mixed integer widths inside a sort key: the comparison order
        then depends on silent widening, the exact failure mode the
        packed-key layout exists to avoid."""
        for arg in node.args:
            for sub in ast.walk(arg):
                if not isinstance(sub, ast.BinOp):
                    continue
                left = self.eval(sub.left, quiet=True)
                right = self.eval(sub.right, quiet=True)
                if left in _INT_DTYPES and right in _INT_DTYPES and \
                        left != right and \
                        _WIDTH[left] != _WIDTH[right]:
                    self._flag(sub, self._promo_chain(
                        sub, (sub.left, sub.right),
                        f"mixes {left} with {right} inside "
                        "np." + self._np_func(node.func) +
                        " — the key order depends on silent widening"))

    # -- statement walk ----------------------------------------------

    def run_function(self, func: ast.FunctionDef) -> DtypeEnv:
        """Infer dtypes through ``func`` in source order; returns the
        ``self.<attr>`` dtypes it assigns (for the class pre-pass)."""
        self.env = {}
        assigned_attrs: DtypeEnv = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                dtype = self._eval_assign_value(stmt)
                for target in stmt.targets:
                    self._bind(target, dtype, stmt, assigned_attrs)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                dtype = self._eval(stmt.value)
                self._bind(stmt.target, dtype, stmt, assigned_attrs)
            elif isinstance(stmt, ast.AugAssign):
                self._eval(ast.copy_location(
                    ast.BinOp(left=_load_of(stmt.target), op=stmt.op,
                              right=stmt.value), stmt))
            elif isinstance(stmt, ast.Expr):
                self._eval(stmt.value)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._eval(stmt.test)
            elif isinstance(stmt, ast.Return) and stmt.value:
                self._eval(stmt.value)
        return assigned_attrs

    def _eval_assign_value(self, stmt: ast.Assign):
        # Tuple-producing calls: q, j = np.divmod(a, b)  /
        # u, c = np.unique(x, return_counts=True)
        if len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Tuple) and \
                isinstance(stmt.value, ast.Call):
            fn = self._np_func(stmt.value.func)
            if fn == "divmod" and len(stmt.value.args) == 2:
                d = self.promote(self._eval(stmt.value.args[0]),
                                 self._eval(stmt.value.args[1]))
                return (d, d)
            if fn == "unique":
                base = self._eval(stmt.value.args[0]) \
                    if stmt.value.args else None
                return (base, "int64")
        return self._eval(stmt.value)

    def _bind(self, target: ast.expr, dtype, stmt: ast.stmt,
              assigned_attrs: DtypeEnv) -> None:
        if isinstance(target, ast.Name):
            d = dtype if not isinstance(dtype, tuple) else None
            self.env[target.id] = (d, stmt.lineno)
        elif isinstance(target, ast.Tuple):
            parts = dtype if isinstance(dtype, tuple) and \
                len(dtype) == len(target.elts) else \
                (None,) * len(target.elts)
            for sub, d in zip(target.elts, parts):
                self._bind(sub, d, stmt, assigned_attrs)
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            d = dtype if not isinstance(dtype, tuple) else None
            prev = assigned_attrs.get(target.attr)
            if prev is not None and prev[0] != d:
                d = None  # conflicting assignments degrade to unknown
            assigned_attrs[target.attr] = (d, stmt.lineno)


def _load_of(target: ast.expr) -> ast.expr:
    if isinstance(target, ast.Name):
        return ast.copy_location(
            ast.Name(id=target.id, ctx=ast.Load()), target)
    return target


def _src(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return "<expr>"


def infer_function(func: ast.FunctionDef, np_aliases: Set[str],
                   attr_env: Optional[DtypeEnv] = None
                   ) -> Tuple[DtypeEnv, List[Tuple[int, str]]]:
    """Public probe used by tests: dtype env + findings of one function."""
    inf = _Inferencer(np_aliases, attr_env)
    inf.run_function(func)
    return inf.env, [(f.line, f.message) for f in inf.findings]


class NumpyDtypeRule(Rule):
    """Semantic dtype soundness for the vectorized kernel files.

    Where R001 bans float *syntax* in ``sim/vector.py``, this rule
    tracks the dtype numpy would actually infer and flags what slips
    through lexical review: constructors defaulting to float64, true
    division of integer arrays, uint64 meeting signed integers (numpy
    promotes both to float64), ``.mean()`` on integer columns, and
    mixed integer widths inside a sort key — each with a witness chain
    from the operand's defining assignment to the promoting expression.
    """

    rule_id = "R011"
    name = "numpy-dtype-soundness"
    description = ("inferred numpy dtypes in the kernel files must stay "
                   "integral: no silent float64/object promotion, no "
                   "mixed widths in key ordering")

    FILES = ("sim/vector.py",)

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.relpath not in self.FILES:
            return
        np_aliases = _import_aliases(module.tree, "numpy")
        if not np_aliases:
            return  # pure-python: trivially sound
        for cls, funcs in _class_functions(module.tree):
            attr_env: DtypeEnv = {}
            if cls is not None:
                # Silent pre-pass: collect self.<attr> dtypes so later
                # methods see the columns __init__ created.
                collector = _Inferencer(np_aliases, report=False)
                for func in funcs:
                    for attr, bound in collector.run_function(
                            func).items():
                        prev = attr_env.get(attr)
                        if prev is not None and prev[0] != bound[0]:
                            bound = (None, bound[1])
                        attr_env[attr] = bound
            for func in funcs:
                inf = _Inferencer(np_aliases, attr_env)
                inf.run_function(func)
                for finding in inf.findings:
                    yield Violation(
                        path=module.relpath, line=finding.line, col=0,
                        rule_id=self.rule_id, message=finding.message)


def _class_functions(tree: ast.Module
                     ) -> Iterator[Tuple[Optional[ast.ClassDef],
                                         List[ast.FunctionDef]]]:
    """Top-level functions (grouped under ``None``) and each class's
    methods (grouped so attribute dtypes can be shared)."""
    top: List[ast.FunctionDef] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            top.append(node)
        elif isinstance(node, ast.ClassDef):
            methods = [stmt for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)]
            yield node, methods
    if top:
        yield None, top
