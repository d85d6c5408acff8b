"""The ``repro lint`` subcommand: the sim-lint static analyzer's front end.

Examples::

    repro lint                                      # scan src/repro, text output
    repro lint --json                               # machine-readable report
    repro lint --format github                      # PR-diff annotations
    repro lint --format sarif --output sim-lint.sarif
    repro lint --baseline analysis-baseline.json
    repro lint --rules SIM001,EXEC102 src/repro/core
    repro lint --write-baseline analysis-baseline.json

Exit codes: 0 clean (no non-grandfathered findings), 1 findings, 2 bad
invocation or unreadable configuration.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional

from ..cli import EXIT_FAILED, EXIT_OK, fail, write_text
from .baseline import load_baseline, split_by_baseline, write_baseline
from .config import load_config
from .engine import Finding, analyze_paths
from .formats import FORMATS, render
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
        "--format", choices=sorted(FORMATS), default=None, dest="fmt",
        help="report format (default: text); github = Actions annotations, "
        "sarif = SARIF 2.1.0 for code-scanning upload",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE as well as stdout",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="JSON baseline of grandfathered findings that do not fail the run",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", dest="write_baseline_path",
        help="write current findings to FILE as a new baseline and exit 0",
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT",
        help="pyproject.toml holding [tool.sim-lint] (default: discovered upward)",
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

    config_path = Path(args.config) if args.config else None
    if config_path is not None and not config_path.is_file():
        return fail(f"config file not found: {config_path}")
    config = load_config(pyproject=config_path, start=scan_paths[0])

    findings = analyze_paths(scan_paths, config=config, rules=rules)

    if args.write_baseline_path:
        count = write_baseline(findings, Path(args.write_baseline_path))
        print(f"wrote {count} finding(s) to baseline {args.write_baseline_path}")
        return EXIT_OK

    grandfathered: List[Finding] = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            return fail(f"baseline file not found: {baseline_path}")
        try:
            fingerprints = load_baseline(baseline_path)
        except ValueError as exc:
            return fail(str(exc))
        findings, grandfathered = split_by_baseline(findings, fingerprints)

    fmt = args.fmt or ("json" if args.as_json else "text")
    report = render(fmt, findings, grandfathered)
    print(report)
    if args.output:
        write_text(args.output, report + "\n")
    return EXIT_FAILED if findings else EXIT_OK


def _select_rules(spec: Optional[str]):
    if not spec:
        return list(ALL_RULES)
    return [rule_by_id(rule_id.strip()) for rule_id in spec.split(",") if rule_id.strip()]
