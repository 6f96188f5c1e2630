"""Wire-protocol conformance (R012).

R012 checks that the JSON-lines wire protocol spoken by ``service/`` and
``distrib/`` stays closed under evolution: every registered verb has a
handler, every emitted verb and request field has a reader, and every
module that defines a wire-format tag checks it before reading a
decoded payload's keys.

The analysis is purely syntactic over :mod:`ast` and stdlib-only.  Like
the other project rules it is unsound toward silence: frames built
dynamically are skipped, never guessed at.
"""

from __future__ import annotations

import ast
import re
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Set,
                    Tuple)

from .engine import ModuleInfo
from .rules import Rule
from .violations import Violation

if TYPE_CHECKING:
    from .callgraph import ProjectIndex

__all__ = ["WireConformanceRule"]


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


def _all_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node
