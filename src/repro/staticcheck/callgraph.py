"""Project-wide symbol table and call graph for cross-module rules.

The single-file rules (R001–R005) judge one AST at a time; the
concurrency rules (R006–R008) need to answer questions like "which
functions does a coroutine reach?" and "what class is this module-level
global an instance of?".  :class:`ProjectIndex` answers them from the
same parsed :class:`~repro.staticcheck.engine.ModuleInfo` records the
engine already holds:

* a **symbol table** — every module, top-level function, class, method,
  and nested ``def`` under the scanned root, plus each module's import
  bindings (``import repro.x.y as z``, ``from ..util.lru import LRUCache
  as C``, …) resolved to canonical dotted names;
* **call resolution** — mapping a call expression to the project
  function it invokes (through import aliases, ``self.method``, methods
  of locally-constructed instances, annotated parameters, and
  ``self.<table>[key](...)`` through a dispatch table the class assigns
  as one dict literal of functions) or to an external dotted name
  (``time.sleep``); anything else dynamic degrades to :data:`UNKNOWN`,
  never to a crash or a guess;
* an **instance-type oracle** — the class behind ``ANALYSIS_CACHE`` (a
  module global built by a constructor call), ``self._lock`` (an
  attribute assigned in a method), or a ``model: OverheadModel``
  parameter annotation.

Everything here is deliberately *flow-insensitive* and *unsound in the
direction of silence*: when two assignments disagree or a name is
rebound dynamically, resolution returns :data:`UNKNOWN` and the rules
stay quiet.  Determinism matters more than recall — the same tree must
always produce the same violations.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .engine import ModuleInfo

__all__ = [
    "Sym",
    "UNKNOWN",
    "FunctionInfo",
    "ClassInfo",
    "ModuleTable",
    "CallSite",
    "ProjectIndex",
]

#: The dotted prefix that marks an absolute import as project-internal.
#: Fixture trees mimic the real layout, so the root package answers to
#: the same name there.
ROOT_PACKAGE = "repro"


class Sym:
    """One resolved symbol: a tagged reference.

    ``kind`` is one of ``module``, ``func``, ``class``, ``instance``
    (a value whose class is known), ``external`` (a dotted name outside
    the scanned root, e.g. ``time.sleep``), ``global`` (a module-level
    data binding), or ``unknown``.  ``ref`` is the matching payload;
    ``external`` carries the dotted name string.
    """

    __slots__ = ("kind", "ref")

    def __init__(self, kind: str, ref: object = None) -> None:
        self.kind = kind
        self.ref = ref

    def __repr__(self) -> str:
        return f"Sym({self.kind}, {self.ref!r})"

    @property
    def external_name(self) -> Optional[str]:
        """The dotted name for ``external`` symbols, else ``None``."""
        return self.ref if self.kind == "external" else None  # type: ignore[return-value]


#: The shared don't-know symbol: rules must treat it as silence.
UNKNOWN = Sym("unknown")


class FunctionInfo:
    """One function, method, nested def, or module body."""

    __slots__ = ("qname", "module", "node", "is_async", "is_module",
                 "cls", "parent", "children")

    def __init__(self, qname: str, module: ModuleInfo,
                 node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module],
                 *, is_module: bool = False,
                 cls: Optional["ClassInfo"] = None,
                 parent: Optional["FunctionInfo"] = None) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.is_module = is_module
        self.cls = cls
        self.parent = parent
        self.children: Dict[str, "FunctionInfo"] = {}

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qname})"


class ClassInfo:
    """One class: methods, base names, and inferred attribute types."""

    __slots__ = ("qname", "module", "node", "methods", "bases",
                 "_attr_types")

    def __init__(self, qname: str, module: ModuleInfo,
                 node: ast.ClassDef) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        self.bases: List[ast.expr] = list(node.bases)
        self._attr_types: Optional[Dict[str, Sym]] = None

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:
        return f"ClassInfo({self.qname})"


class ModuleTable:
    """Everything the index knows about one module."""

    __slots__ = ("qname", "info", "functions", "classes", "imports",
                 "globals", "body")

    def __init__(self, qname: str, info: ModuleInfo) -> None:
        self.qname = qname
        self.info = info
        #: Top-level functions by bare name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Top-level classes by bare name.
        self.classes: Dict[str, ClassInfo] = {}
        #: Local name -> canonical dotted target.  Project targets are
        #: ``repro.``-prefixed; external targets keep their own spelling.
        self.imports: Dict[str, str] = {}
        #: Module-level data bindings: name -> the assigned value node.
        self.globals: Dict[str, ast.expr] = {}
        #: Pseudo-function for module-level statements.
        self.body: Optional[FunctionInfo] = None


class CallSite:
    """One call expression inside a function, with its resolved target."""

    __slots__ = ("node", "target")

    def __init__(self, node: ast.Call, target: Sym) -> None:
        self.node = node
        self.target = target


def _module_qname(info: ModuleInfo) -> str:
    parts = info.module_parts
    return ".".join(parts) if parts else "__root__"


def _iter_own_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function or class
    bodies — those belong to their own :class:`FunctionInfo`."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _own_nested_defs(node: ast.AST) -> Iterator[Union[ast.FunctionDef,
                                                      ast.AsyncFunctionDef]]:
    """Function definitions whose immediately enclosing scope is
    ``node`` (classes open a new scope, so their methods are excluded)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            continue
        if isinstance(child, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(child))


class ProjectIndex:
    """The cross-module symbol table, call graph, and type oracle."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleTable] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for info in modules:
            self._index_module(info)
        self._callsites: Dict[str, List[CallSite]] = {}

    # -- construction --------------------------------------------------------

    def _index_module(self, info: ModuleInfo) -> None:
        qname = _module_qname(info)
        table = ModuleTable(qname, info)
        self.modules[qname] = table
        table.body = FunctionInfo(f"{qname}.<module>", info, info.tree,
                                  is_module=True)
        self.functions[table.body.qname] = table.body
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(table, stmt, f"{qname}.{stmt.name}",
                                     cls=None, parent=None,
                                     bind=table.functions)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(table, stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                table.globals.setdefault(stmt.targets[0].id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and isinstance(stmt.target, ast.Name):
                table.globals.setdefault(stmt.target.id, stmt.value)
        self._index_imports(table)

    def _index_function(self, table: ModuleTable,
                        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                        qname: str, *, cls: Optional[ClassInfo],
                        parent: Optional[FunctionInfo],
                        bind: Optional[Dict[str, FunctionInfo]]) -> None:
        fn = FunctionInfo(qname, table.info, node, cls=cls, parent=parent)
        self.functions[qname] = fn
        if bind is not None:
            bind[node.name] = fn
        if parent is not None:
            parent.children[node.name] = fn
        for nested in _own_nested_defs(node):
            self._index_function(table, nested, f"{qname}.{nested.name}",
                                 cls=cls, parent=fn, bind=None)

    def _index_class(self, table: ModuleTable, node: ast.ClassDef) -> None:
        qname = f"{table.qname}.{node.name}"
        cls = ClassInfo(qname, table.info, node)
        table.classes[node.name] = cls
        self.classes[qname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(table, stmt,
                                     f"{qname}.{stmt.name}", cls=cls,
                                     parent=None, bind=None)
                cls.methods[stmt.name] = self.functions[f"{qname}.{stmt.name}"]

    def _index_imports(self, table: ModuleTable) -> None:
        info = table.info
        pkg_parts = list(info.module_parts[:-1]) \
            if not info.relpath.endswith("__init__.py") \
            else list(info.module_parts)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    table.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node, pkg_parts)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table.imports[local] = (f"{base}.{alias.name}"
                                            if base else alias.name)

    @staticmethod
    def _import_base(node: ast.ImportFrom,
                     pkg_parts: List[str]) -> Optional[str]:
        """The dotted module an ``ImportFrom`` pulls names out of, with
        relative imports rebased onto the root package."""
        if node.level == 0:
            return node.module or ""
        if node.level > len(pkg_parts) + 1:
            return None
        base_parts = pkg_parts[:len(pkg_parts) - (node.level - 1)]
        parts = [ROOT_PACKAGE] + base_parts
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts)

    # -- dotted-name resolution ----------------------------------------------

    def _project_parts(self, dotted: str) -> Optional[List[str]]:
        """``dotted`` relative to the scanned root, or ``None`` when it
        names something outside the project."""
        parts = dotted.split(".")
        if parts[0] != ROOT_PACKAGE:
            return None
        return parts[1:]

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Sym:
        """Resolve a canonical dotted name to a project symbol, falling
        back to an external symbol for anything outside the root."""
        if _depth > 16:  # import chains can loop; stay silent, not stuck
            return UNKNOWN
        parts = self._project_parts(dotted)
        if parts is None:
            return Sym("external", dotted)
        # Longest prefix that names a module, then member lookup.
        for split in range(len(parts), -1, -1):
            mod_q = ".".join(parts[:split])
            table = self.modules.get(mod_q if mod_q else "__root__")
            if table is None:
                continue
            rest = parts[split:]
            if not rest:
                return Sym("module", table)
            return self._member(table, rest, _depth)
        return UNKNOWN

    def _member(self, table: ModuleTable, rest: List[str],
                _depth: int = 0) -> Sym:
        head, tail = rest[0], rest[1:]
        if head in table.functions:
            return Sym("func", table.functions[head]) if not tail else UNKNOWN
        if head in table.classes:
            cls = table.classes[head]
            if not tail:
                return Sym("class", cls)
            if len(tail) == 1 and tail[0] in cls.methods:
                return Sym("func", cls.methods[tail[0]])
            return UNKNOWN
        if head in table.globals:
            return Sym("global", (table, head)) if not tail else UNKNOWN
        if head in table.imports:
            target = table.imports[head]
            return self.resolve_dotted(".".join([target] + tail), _depth + 1)
        return UNKNOWN

    # -- expression resolution -----------------------------------------------

    def module_of(self, fn: FunctionInfo) -> ModuleTable:
        return self.modules[_module_qname(fn.module)]

    def resolve_name(self, fn: FunctionInfo, name: str) -> Sym:
        """Resolve a bare name as seen from inside ``fn``."""
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if name in scope.children:
                return Sym("func", scope.children[name])
            scope = scope.parent
        table = self.module_of(fn)
        if name in table.functions:
            return Sym("func", table.functions[name])
        if name in table.classes:
            return Sym("class", table.classes[name])
        if name in table.imports:
            return self.resolve_dotted(table.imports[name])
        if name in table.globals:
            return Sym("global", (table, name))
        if hasattr(builtins, name):
            return Sym("external", f"builtins.{name}")
        return UNKNOWN

    def resolve_value(self, fn: FunctionInfo, node: ast.expr,
                      _depth: int = 0) -> Sym:
        """Resolve the *value* of an expression: what a reference points
        at (function, class, module, instance-of-class, external)."""
        if _depth > 8:
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and fn.cls is not None:
                return Sym("instance", fn.cls)
            sym = self.resolve_name(fn, node.id)
            if sym.kind == "unknown" and not fn.is_module:
                inferred = self._infer_local(fn, node.id, _depth)
                if inferred is not None:
                    return inferred
            if sym.kind == "global":
                table, gname = sym.ref  # type: ignore[misc]
                inferred = self._instance_of(table.body, table.globals[gname],
                                             _depth)
                return inferred if inferred is not None else sym
            return sym
        if isinstance(node, ast.Attribute):
            return self._resolve_attribute(fn, node, _depth)
        if isinstance(node, ast.Call):
            target = self.resolve_value(fn, node.func, _depth + 1)
            if target.kind == "class":
                return Sym("instance", target.ref)
            return UNKNOWN
        if isinstance(node, ast.Await):
            return self.resolve_value(fn, node.value, _depth + 1)
        return UNKNOWN

    def _resolve_attribute(self, fn: FunctionInfo, node: ast.Attribute,
                           _depth: int) -> Sym:
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                and fn.cls is not None:
            return self._class_member(fn.cls, node.attr)
        base_sym = self.resolve_value(fn, base, _depth + 1)
        if base_sym.kind == "module":
            table: ModuleTable = base_sym.ref  # type: ignore[assignment]
            return self._member(table, [node.attr])
        if base_sym.kind == "external":
            return Sym("external", f"{base_sym.ref}.{node.attr}")
        if base_sym.kind == "class":
            cls: ClassInfo = base_sym.ref  # type: ignore[assignment]
            return self._class_member(cls, node.attr)
        if base_sym.kind == "instance":
            cls = base_sym.ref  # type: ignore[assignment]
            return self._class_member(cls, node.attr)
        if base_sym.kind == "instance_external":
            # An attribute of an externally-constructed value: keep the
            # provenance so e.g. ``self._sock.sendall`` resolves to
            # ``socket.create_connection.sendall``.
            return Sym("external", f"{base_sym.ref}.{node.attr}")
        return UNKNOWN

    def _class_member(self, cls: ClassInfo, attr: str,
                      _seen: Optional[set] = None) -> Sym:
        if _seen is None:
            _seen = set()
        if cls.qname in _seen:
            return UNKNOWN
        _seen.add(cls.qname)
        if attr in cls.methods:
            return Sym("func", cls.methods[attr])
        attr_types = self.attr_types(cls)
        if attr in attr_types:
            return attr_types[attr]
        table = self.modules[_module_qname(cls.module)]
        for base in cls.bases:
            base_sym = None
            if isinstance(base, ast.Name):
                base_sym = self._member(table, [base.id])
            elif isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name):
                base_sym = self._member(table, [base.value.id, base.attr])
            if base_sym is not None and base_sym.kind == "class":
                found = self._class_member(base_sym.ref, attr, _seen)
                if found.kind != "unknown":
                    return found
        return UNKNOWN

    def _infer_local(self, fn: FunctionInfo, name: str,
                     _depth: int) -> Optional[Sym]:
        """Type of a local variable or parameter, from a constructor
        assignment, a ``with ... as`` item, or a parameter annotation."""
        node = fn.node
        if isinstance(node, ast.Module):
            return None
        for stmt in _iter_own_statements(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name) and \
                    stmt.targets[0].id == name:
                return self._instance_of(fn, stmt.value, _depth)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name) and \
                            item.optional_vars.id == name:
                        return self._instance_of(fn, item.context_expr,
                                                 _depth)
        for arg in (node.args.posonlyargs + node.args.args +
                    node.args.kwonlyargs):
            if arg.arg == name and arg.annotation is not None:
                return self._annotation_type(fn, arg.annotation, _depth)
        return None

    def _instance_of(self, fn: FunctionInfo, value: ast.expr,
                     _depth: int) -> Optional[Sym]:
        """The instance symbol a constructor-call expression produces.
        A bare name (``self.state = state``) resolves through the local
        scope, so an annotated parameter propagates its type."""
        if _depth > 8:
            return None
        if isinstance(value, ast.Name):
            sym = self.resolve_value(fn, value, _depth + 1)
            if sym.kind in ("instance", "instance_external"):
                return sym
            return None
        if isinstance(value, ast.Call):
            target = self.resolve_value(fn, value.func, _depth + 1)
            if target.kind == "class":
                return Sym("instance", target.ref)
            if target.kind == "external":
                return Sym("instance_external", target.ref)
            if target.kind == "func":
                callee: FunctionInfo = target.ref  # type: ignore[assignment]
                returns = getattr(callee.node, "returns", None)
                if returns is not None:
                    return self._annotation_type(callee, returns, _depth + 1)
        return None

    def _annotation_type(self, fn: FunctionInfo, ann: ast.expr,
                         _depth: int) -> Optional[Sym]:
        """Instance symbol for a parameter/return annotation; unwraps
        ``Optional[X]`` / ``"X"`` string annotations one level."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            ann = ann.slice if not isinstance(ann.slice, ast.Tuple) \
                else ann.slice.elts[0]
        if isinstance(ann, (ast.Name, ast.Attribute)):
            sym = self.resolve_value(fn, ann, _depth + 1)
            if sym.kind == "class":
                return Sym("instance", sym.ref)
            if sym.kind == "external":
                return Sym("instance_external", sym.ref)
        return None

    # -- attribute types -----------------------------------------------------

    #: Constructor calls treated as type evidence for ``self.x = ...``.
    def attr_types(self, cls: ClassInfo) -> Dict[str, Sym]:
        """``self.<attr>`` types inferred from assignments in any method
        (conflicting assignments drop to unknown and are omitted)."""
        if cls._attr_types is not None:
            return cls._attr_types
        cls._attr_types = {}  # set first: cycle-safe for recursive types
        found: Dict[str, Sym] = {}
        conflicted: set = set()
        for method in cls.methods.values():
            node = method.node
            if isinstance(node, ast.Module):
                continue
            for stmt in _iter_own_statements(node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None:
                    continue
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    inferred = self._instance_of(method, value, 0)
                    if inferred is None:
                        continue
                    attr = target.attr
                    prev = found.get(attr)
                    if prev is not None and (prev.kind, repr(prev.ref)) != \
                            (inferred.kind, repr(inferred.ref)):
                        conflicted.add(attr)
                    else:
                        found[attr] = inferred
        cls._attr_types.update({a: s for a, s in found.items()
                                if a not in conflicted})
        return cls._attr_types

    # -- call graph ----------------------------------------------------------

    def callsites(self, fn: FunctionInfo) -> List[CallSite]:
        """Every call expression in ``fn``'s own body, resolved."""
        cached = self._callsites.get(fn.qname)
        if cached is not None:
            return cached
        sites: List[CallSite] = []
        for node in _iter_own_statements(fn.node):
            if isinstance(node, ast.Call):
                table = self._dispatch_table(fn, node.func)
                if table:
                    sites.extend(CallSite(node, sym) for sym in table)
                else:
                    sites.append(CallSite(node,
                                          self.resolve_value(fn, node.func)))
        self._callsites[fn.qname] = sites
        return sites

    def _dispatch_table(self, fn: FunctionInfo, func: ast.expr) -> List[Sym]:
        """Every entry of ``self.<table>`` when ``func`` is
        ``self.<table>[key]`` and the class assigns ``<table>`` exactly
        once, as a dict literal whose values all resolve to project
        functions (a verb -> handler table); empty otherwise."""
        if fn.cls is None or not (
                isinstance(func, ast.Subscript)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"):
            return []
        attr = func.value.attr
        found: List[List[Sym]] = []
        for method in fn.cls.methods.values():
            for stmt in _iter_own_statements(method.node):
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                if not any(isinstance(t, ast.Attribute)
                           and isinstance(t.value, ast.Name)
                           and t.value.id == "self" and t.attr == attr
                           for t in targets):
                    continue
                if not isinstance(value, ast.Dict):
                    return []
                found.append([self.resolve_callable_ref(method, v)
                              for v in value.values])
        if len(found) != 1 or any(sym.kind != "func" for sym in found[0]):
            return []
        return found[0]

    def project_callees(self, fn: FunctionInfo) -> List[Tuple[FunctionInfo, ast.Call]]:
        """Resolved project-internal callees of ``fn`` (constructor calls
        resolve to ``__init__`` when the class defines one)."""
        out: List[Tuple[FunctionInfo, ast.Call]] = []
        for site in self.callsites(fn):
            target = site.target
            if target.kind == "func":
                out.append((target.ref, site.node))
            elif target.kind == "class":
                init = target.ref.methods.get("__init__")
                if init is not None:
                    out.append((init, site.node))
        return out

    def resolve_callable_ref(self, fn: FunctionInfo,
                             node: ast.expr) -> Sym:
        """Resolve a callback *reference* (``target=self._main``,
        ``pool.submit(worker, ...)``): like :meth:`resolve_value` but a
        bare function/class symbol is the answer, not an instance."""
        sym = self.resolve_value(fn, node)
        if sym.kind in ("func", "class", "external"):
            return sym
        return UNKNOWN

    def all_functions(self) -> Iterator[FunctionInfo]:
        """Every indexed function, module bodies included, in a stable
        order (sorted by qualified name)."""
        for qname in sorted(self.functions):
            yield self.functions[qname]
