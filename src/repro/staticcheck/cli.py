"""``python -m repro.staticcheck`` / ``repro lint`` — the command line.

Exit codes: 0 clean, 1 violations, 2 usage error.  Every run is a hard
gate: per-line pragmas are the only way to suppress a finding.
``--format json`` emits a machine-readable report for CI annotation; the
default text format prints one ``path:line:col: RULE message`` line per
violation, ready for editors to jump to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Checker, CheckResult, _split_rule_ids
from .rules import RULES
from .violations import Violation

__all__ = ["main"]

#: Default scan root: the installed/checked-out ``repro`` package itself.
_DEFAULT_ROOT = Path(__file__).resolve().parents[1]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST-based invariant checker: exactness, determinism, "
                    "layering, hygiene, the "
                    "interprocedural concurrency rules (R006-R009), "
                    "and the provenance rules (R013 seed provenance, "
                    "R014 ordering soundness, R015 canonical "
                    "serialization).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, default=None,
        help="package directories or files to check "
             f"(default: {_DEFAULT_ROOT})")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line")
    return parser


def _list_rules() -> int:
    for rule in RULES:
        print(f"{rule.rule_id}  {rule.name}: {rule.description}")
    return 0


def _render_text(result: CheckResult, quiet: bool) -> None:
    for violation in result.violations:
        print(violation.render())
    if not quiet:
        summary = (f"checked {result.files_checked} files: "
                   f"{len(result.violations)} violation(s)")
        if result.suppressed:
            summary += f", {result.suppressed} pragma-suppressed"
        print(summary, file=sys.stderr)


def _render_json(result: CheckResult) -> None:
    print(json.dumps({
        "root": result.root,
        "files_checked": result.files_checked,
        "violations": [v.to_dict() for v in result.violations],
        "pragma_suppressed": result.suppressed,
        "ok": result.ok,
    }, indent=2))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the checker over the given paths; returns the process exit code.

    Exit 0 when clean, 1 when violations were found, 2 on usage errors.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules()

    # Same id parser as the pragmas: spaces and empty parts are dropped.
    select = None if args.select is None else _split_rule_ids(args.select)
    ignore = None if args.ignore is None else _split_rule_ids(args.ignore)
    known = {rule.rule_id for rule in RULES}
    for flag, ids in (("--select", select), ("--ignore", ignore)):
        if ids is not None and not ids:
            parser.error(f"{flag}: no rule ids given")
        unknown = sorted((ids or set()) - known)
        if unknown:
            parser.error(f"{flag}: unknown rule id(s) {', '.join(unknown)} "
                         f"(see --list-rules)")
    paths = [Path(p) for p in args.paths] if args.paths else [_DEFAULT_ROOT]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    violations: List[Violation] = []
    files_checked = 0
    suppressed = 0
    for path in paths:
        result = Checker(path, select=select, ignore=ignore).check()
        files_checked += result.files_checked
        suppressed += result.suppressed
        violations.extend(result.violations)

    merged = CheckResult(
        root=str(paths[0]) if len(paths) == 1 else "; ".join(map(str, paths)),
        violations=violations, suppressed=suppressed,
        files_checked=files_checked)
    if args.format == "json":
        _render_json(merged)
    else:
        _render_text(merged, args.quiet)
    return 0 if merged.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
