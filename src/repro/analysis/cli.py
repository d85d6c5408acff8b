"""The ``repro lint`` subcommand: the sim-lint static analyzer's front end.

Examples::

    repro lint                                      # scan src/repro, text output
    repro lint --json --output sim-lint-report.json # machine-readable report
    repro lint --rules SIM001,EXEC102 src/repro/core

The policy (which modules each rule polices) is
:class:`~repro.analysis.config.SimLintConfig`'s defaults, so the result
does not depend on where the scanned tree sits.  Exit codes: 0 clean,
1 findings, 2 bad invocation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..cli import EXIT_FAILED, EXIT_OK, fail, write_text
from .engine import Finding, analyze_paths
from .rules import ALL_RULES, iter_rule_docs, rule_by_id

__all__ = ["add_parser"]


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="simulation-purity static analysis (sim-lint)",
        description="Simulation-purity static analysis for the MLLess reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the report as JSON instead of text",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE as well as stdout",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule subset to run (e.g. SIM001,SIM003)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its rationale and exit",
    )
    parser.set_defaults(handler=_cmd_lint)


def _render_text(findings: Sequence[Finding]) -> str:
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.location()}: {finding.rule} {finding.message}")
        lines.append(f"    {finding.snippet}")
    lines.append(f"sim-lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def _render_json(findings: Sequence[Finding]) -> str:
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": 2,
        "findings": [f.to_dict() for f in findings],
        "counts": {"total": len(findings), "by_rule": by_rule},
        "clean": not findings,
    }
    return json.dumps(payload, indent=2)


def _cmd_lint(args: Any) -> int:
    if args.list_rules:
        for doc in iter_rule_docs():
            print(f"{doc['id']}: {doc['title']}")
            for line in doc["doc"].splitlines():
                print(f"    {line.rstrip()}")
            print()
        return EXIT_OK

    try:
        rules = _select_rules(args.rules)
    except KeyError as exc:
        return fail(exc.args[0])

    scan_paths = [Path(p) for p in args.paths]
    missing = [p for p in scan_paths if not p.exists()]
    if missing:
        return fail(f"no such path: {', '.join(map(str, missing))}")

    findings = analyze_paths(scan_paths, rules=rules)
    report = (_render_json if args.as_json else _render_text)(findings)
    print(report)
    if args.output:
        write_text(args.output, report + "\n")
    return EXIT_FAILED if findings else EXIT_OK


def _select_rules(spec: Optional[str]):
    if not spec:
        return list(ALL_RULES)
    return [rule_by_id(rule_id.strip()) for rule_id in spec.split(",") if rule_id.strip()]
