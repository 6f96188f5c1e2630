"""``python -m repro.staticcheck`` / ``repro lint`` — the command line.

Exit codes: 0 clean (or all violations baselined), 1 violations, 2 usage
error.  ``--format json`` emits a machine-readable report for CI
annotation; the default text format prints one ``path:line:col: RULE
message`` line per violation, ready for editors to jump to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import load_baseline, split_by_baseline, write_baseline
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
                    "interprocedural concurrency rules (R006-R009), the "
                    "dataflow rule R012 (wire conformance), "
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
        "--baseline", type=Path, default=None, metavar="FILE",
        help="baseline JSON: only violations absent from it fail the run")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record the current violations into --baseline and exit 0")
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


def _render_text(new: List[Violation], baselined: List[Violation],
                 result: CheckResult, quiet: bool) -> None:
    for violation in new:
        print(violation.render())
    if not quiet:
        summary = (f"checked {result.files_checked} files: "
                   f"{len(new)} violation(s)")
        if baselined:
            summary += f", {len(baselined)} baselined"
        if result.suppressed:
            summary += f", {result.suppressed} pragma-suppressed"
        print(summary, file=sys.stderr)


def _render_json(new: List[Violation], baselined: List[Violation],
                 result: CheckResult) -> None:
    print(json.dumps({
        "root": result.root,
        "files_checked": result.files_checked,
        "violations": [v.to_dict() for v in new],
        "baselined": len(baselined),
        "pragma_suppressed": result.suppressed,
        "ok": not new,
    }, indent=2))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the checker over the given paths; returns the process exit code.

    Exit 0 when no new violations (relative to the baseline, if any),
    1 when violations were found, 2 on usage errors or unparseable files.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules()
    if args.write_baseline and args.baseline is None:
        parser.error("--write-baseline requires --baseline FILE")

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

    all_new: List[Violation] = []
    all_baselined: List[Violation] = []
    files_checked = 0
    suppressed = 0
    fingerprints = (load_baseline(args.baseline)
                    if args.baseline is not None else set())
    everything: List[Violation] = []
    last_result: Optional[CheckResult] = None
    for path in paths:
        result = Checker(path, select=select, ignore=ignore).check()
        last_result = result
        files_checked += result.files_checked
        suppressed += result.suppressed
        everything.extend(result.violations)
        new, baselined = split_by_baseline(result.violations, fingerprints)
        all_new.extend(new)
        all_baselined.extend(baselined)

    if args.write_baseline:
        write_baseline(args.baseline, everything)
        if not args.quiet:
            print(f"wrote {len(everything)} violation(s) to {args.baseline}",
                  file=sys.stderr)
        return 0

    merged = CheckResult(
        root=str(paths[0]) if len(paths) == 1 else "; ".join(map(str, paths)),
        violations=all_new, suppressed=suppressed,
        files_checked=files_checked)
    if last_result is None:
        parser.error("nothing to check")
    if args.format == "json":
        _render_json(all_new, all_baselined, merged)
    else:
        _render_text(all_new, all_baselined, merged, args.quiet)
    return 1 if all_new else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
