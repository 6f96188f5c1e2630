"""Rule engine: file walking, parsing, pragma suppression, orchestration.

The engine knows nothing about individual invariants — it parses every
``*.py`` under a root, hands :class:`ModuleInfo` records to the rules
(per-module pass, then a whole-project ``finalize`` pass for cross-file
rules like layering), and filters the results
through ``# staticcheck: allow[...]`` pragmas.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .violations import Violation

__all__ = ["ModuleInfo", "CheckResult", "Checker", "run_checks"]

#: Line pragma: suppress the named rules on this physical line.
#: ``ignore[...]`` is an accepted alias for ``allow[...]``.
_PRAGMA_RE = re.compile(
    r"#\s*staticcheck:\s*(?:allow|ignore)\[([A-Za-z0-9_,\s]+)\]")
#: File pragma: suppress the named rules everywhere in this file.
_FILE_PRAGMA_RE = re.compile(
    r"#\s*staticcheck:\s*(?:allow|ignore)-file\[([A-Za-z0-9_,\s]+)\]")

#: Rule id for files the engine itself cannot parse.
PARSE_ERROR = "E000"


def _split_rule_ids(raw: str) -> Set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass
class ModuleInfo:
    """One parsed source file plus everything a rule needs to judge it."""

    path: Path                        # absolute path on disk
    relpath: str                      # posix path relative to the scanned root
    tree: ast.Module
    source: str
    lines: List[str]
    line_allows: Dict[int, Set[str]] = field(default_factory=dict)
    file_allows: Set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        """Top-level package directory within the root ('' for top-level
        modules like ``cli.py``)."""
        parts = self.relpath.split("/")
        return parts[0] if len(parts) > 1 else ""

    @property
    def module_parts(self) -> Tuple[str, ...]:
        """Dotted-module components relative to the root package,
        e.g. ``('core', 'priority')``; ``__init__`` is dropped so a
        package's init file resolves to the package itself."""
        parts = self.relpath[:-3].split("/")  # strip ".py"
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return tuple(parts)

    def allows(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_allows:
            return True
        return rule_id in self.line_allows.get(line, ())


def _scan_pragmas(lines: Sequence[str]) -> Tuple[Dict[int, Set[str]], Set[str]]:
    line_allows: Dict[int, Set[str]] = {}
    file_allows: Set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        if "staticcheck" not in text:
            continue
        m = _FILE_PRAGMA_RE.search(text)
        if m:
            file_allows |= _split_rule_ids(m.group(1))
        m = _PRAGMA_RE.search(text)
        if m:
            line_allows.setdefault(lineno, set()).update(
                _split_rule_ids(m.group(1)))
    return line_allows, file_allows


def load_module(path: Path, root: Path) -> Tuple[Optional[ModuleInfo], Optional[Violation]]:
    """Parse one file; returns ``(module, None)`` or ``(None, parse-error)``."""
    relpath = path.relative_to(root).as_posix()
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Violation(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR,
            message=f"cannot parse: {exc.msg}",
        )
    line_allows, file_allows = _scan_pragmas(lines)
    return ModuleInfo(path=path, relpath=relpath, tree=tree, source=source,
                      lines=lines, line_allows=line_allows,
                      file_allows=file_allows), None


@dataclass
class CheckResult:
    """Everything one run produced, after pragma suppression."""

    root: str
    violations: List[Violation]
    suppressed: int          # pragma-suppressed hits (for -v accounting)
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


class Checker:
    """Walks a root directory and runs a rule set over it.

    ``root`` is the package directory to scan (canonically ``src/repro``;
    test fixtures use any directory with the same sub-package layout).
    A single ``*.py`` file is accepted too — its parent becomes the root.
    """

    def __init__(self, root: Path, rules: Optional[Sequence[object]] = None,
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> None:
        from .rules import RULES

        root = Path(root).resolve()
        if root.is_file():
            self.files: List[Path] = [root]
            self.root = root.parent
        else:
            self.root = root
            self.files = sorted(p for p in root.rglob("*.py")
                                if "__pycache__" not in p.parts)
        chosen = list(RULES if rules is None else rules)
        if select is not None:
            wanted = set(select)
            chosen = [r for r in chosen if r.rule_id in wanted]
        if ignore is not None:
            dropped = set(ignore)
            chosen = [r for r in chosen if r.rule_id not in dropped]
        self.rules = chosen
        #: The ProjectIndex of the last ``check()`` run, if one was
        #: built (``None`` otherwise) — introspection for tests.
        self.project = None

    def check(self) -> CheckResult:
        modules: List[ModuleInfo] = []
        raw: List[Violation] = []
        for path in self.files:
            module, parse_error = load_module(path, self.root)
            if parse_error is not None:
                raw.append(parse_error)
                continue
            assert module is not None  # exactly one of the pair is set
            modules.append(module)
            for rule in self.rules:
                raw.extend(rule.check_module(module))
        by_relpath = {m.relpath: m for m in modules}
        for rule in self.rules:
            raw.extend(rule.finalize(modules))

        project_rules = [r for r in self.rules
                         if getattr(r, "uses_project", False)]
        if project_rules:
            # Deferred import: callgraph imports ModuleInfo from here.
            from .callgraph import ProjectIndex
            from .passes import project_pass

            project = ProjectIndex(modules)
            #: Kept for introspection: the pass-isolation tests assert
            #: via ``passes.built_passes`` that a ``--select`` run built
            #: only the passes the selected rules declared.
            self.project = project
            # Build exactly the union of the selected rules' declared
            # passes up front — rules then hit the memoised copies, and
            # a rule whose declaration is missing fails loudly in its
            # own check_project rather than silently building extra.
            for rule in project_rules:
                for need in getattr(rule, "needs", ()):
                    project_pass(project, need)
            for rule in project_rules:
                raw.extend(rule.check_project(project))

        kept: List[Violation] = []
        suppressed = 0
        for violation in raw:
            module = by_relpath.get(violation.path)
            if module is not None and module.allows(violation.rule_id,
                                                    violation.line):
                suppressed += 1
            else:
                kept.append(violation)
        kept.sort()
        return CheckResult(root=str(self.root), violations=kept,
                           suppressed=suppressed, files_checked=len(self.files))


def run_checks(root: Path, *, select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None) -> CheckResult:
    """One-call convenience wrapper: check ``root`` with the default rules."""
    return Checker(Path(root), select=select, ignore=ignore).check()
