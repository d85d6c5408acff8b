"""The ``repro scenario`` subcommands: list, validate and run scenarios.

This is the package's host-I/O module (as ``repro.trace.cli`` is): it
reads template/spec files, writes KPI reports, and prints — everything
the pure spec/compiler layers are forbidden to do.

Subcommands::

    repro scenario list
    repro scenario validate fault-storm
    repro scenario validate path/to/my_scenario.toml
    repro scenario run fault-storm --report out.json
    repro scenario run rightsize-sweep --seed 7
    repro scenario run diurnal-multi-tenant --rerun-check

Exit codes: 0 success; 1 reconciliation failure; 2 spec/usage error;
3 budget violation; 4 digest instability under ``--rerun-check``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, List, Tuple

from ..cli import (
    EXIT_BUDGET,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_UNSTABLE,
    fail,
    write_json,
)
from ..core.capabilities import RERUN, Refusal, check
from .compiler import run_scenario_spec
from .kpi import ReconciliationError, summary_lines
from .loader import load_spec_text
from .spec import ScenarioSpec, SpecError

__all__ = ["add_parser", "template_dir", "list_templates", "load_template"]


def template_dir() -> Path:
    """The committed template library shipped inside the package."""
    return Path(__file__).resolve().parent / "templates"


def list_templates() -> List[Tuple[str, Path]]:
    """``(name, path)`` for every committed template, sorted by name."""
    out = []
    for path in sorted(template_dir().glob("*.toml")):
        out.append((path.stem.replace("_", "-"), path))
    return out


def _resolve(ref: str) -> Path:
    """Map a template name or a filesystem path to a spec file."""
    for name, path in list_templates():
        if ref == name:
            return path
    candidate = Path(ref)
    if candidate.is_file():
        return candidate
    known = ", ".join(name for name, _ in list_templates())
    raise SpecError(
        ref, f"no such template or spec file (templates: {known})"
    )


def load_template(ref: str) -> ScenarioSpec:
    """Load a scenario by template name or file path."""
    path = _resolve(ref)
    return load_spec_text(path.read_text(encoding="utf-8"), origin=path.name)


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenario",
        help="list, validate and run declarative scenarios",
        description="Declarative scenario engine: run replayable "
        "workload/backend/fault/traffic/pricing scenarios from TOML or "
        "JSON specs and emit digest-gated KPI reports.",
    )
    sub = parser.add_subparsers(required=True, metavar="<command>")

    p_list = sub.add_parser("list", help="list the committed scenario templates")
    p_list.set_defaults(handler=_reporting_spec_errors(_cmd_list))

    validate = sub.add_parser(
        "validate", help="parse and validate a spec without running it"
    )
    validate.add_argument("scenario", help="template name or spec file path")
    validate.set_defaults(handler=_reporting_spec_errors(_cmd_validate))

    run = sub.add_parser("run", help="run a scenario end-to-end")
    run.add_argument("scenario", help="template name or spec file path")
    run.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full KPI report JSON to PATH",
    )
    run.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed",
    )
    run.add_argument(
        "--rerun-check", action="store_true",
        help="run the scenario twice and fail (exit 4) unless the KPI "
        "digests match — the determinism gate CI applies to every "
        "committed template",
    )
    run.set_defaults(handler=_reporting_spec_errors(_cmd_run))


def _reporting_spec_errors(command: Callable[[Any], int]) -> Callable[[Any], int]:
    """Handler that maps the engine's two refusals onto exit codes."""

    def handler(args: Any) -> int:
        try:
            return command(args)
        except (SpecError, Refusal) as exc:
            return fail(str(exc))
        except ReconciliationError as exc:
            print(f"reconciliation failure: {exc}", file=sys.stderr)
            return EXIT_FAILED

    return handler


def _cmd_list(args: Any) -> int:
    rows = []
    for name, path in list_templates():
        try:
            spec = load_spec_text(path.read_text(encoding="utf-8"),
                                  origin=path.name)
        except SpecError as exc:
            rows.append((name, "INVALID", str(exc)))
            continue
        rows.append((name, spec.kind, spec.description or "-"))
    if not rows:
        print("no committed templates found")
        return EXIT_OK
    width = max(len(name) for name, _, _ in rows)
    kind_width = max(len(kind) for _, kind, _ in rows)
    for name, kind, description in rows:
        print(f"{name:<{width}}  {kind:<{kind_width}}  {description}")
    return EXIT_OK


def _cmd_validate(args: Any) -> int:
    spec = load_template(args.scenario)
    sections = [key for key, value in spec.to_dict().items() if value]
    print(
        f"OK: {spec.name} [{spec.kind}] seed={spec.seed} "
        f"sections: {', '.join(sections)}"
    )
    return EXIT_OK


def _cmd_run(args: Any) -> int:
    spec = load_template(args.scenario)
    if args.rerun_check:
        check([RERUN], spec.backend)
    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    payload = run_scenario_spec(spec, seed=args.seed, progress=progress)
    if args.rerun_check:
        again = run_scenario_spec(spec, seed=args.seed, progress=progress)
        if again["digest"] != payload["digest"]:
            print(
                f"DIGEST INSTABILITY: {payload['digest']} != {again['digest']} "
                "— the scenario is not seed-deterministic",
                file=sys.stderr,
            )
            return EXIT_UNSTABLE
        print(f"digest stable across reruns: {payload['digest'][:16]}")
    for line in summary_lines(payload):
        print(line)
    if args.report is not None:
        report_path = Path(args.report)
        write_json(report_path, payload)
        print(f"report written to {report_path}")
    return EXIT_OK if payload["budget"]["ok"] else EXIT_BUDGET
