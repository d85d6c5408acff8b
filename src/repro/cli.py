"""The one command line: ``repro <subcommand>`` / ``python -m repro <subcommand>``.

::

    repro run --workload pmf-ml10m --system mlless --v 0.7
    repro run --list
    repro scenario list | validate <name-or-file> | run <name-or-file>
    repro trace summary | cost | chrome <RUN.trace.json.jsonl>
    repro lint [paths] [--json] [--output FILE] [--rules IDS]
    repro determinism [--trace-invariance]

This module builds the only parser and owns what every subcommand
shares: the exit codes, :func:`fail`, the file writers and the
``BrokenPipeError`` guard.  Each package's host-I/O module
(:mod:`repro.scenarios.cli`, :mod:`repro.trace_cli`,
:mod:`repro.analysis.cli`, :mod:`repro.analysis.determinism`)
contributes ``add_parser(subparsers)`` and the handlers behind it;
``run`` lives here.

Exit codes: 0 ok; 1 a check failed (findings, divergence,
reconciliation); 2 usage error or unreadable input; 3 budget
violation; 4 digest instability under ``scenario run --rerun-check``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .core.capabilities import BACKENDS, COST_METERING, TABLE
from .experiments.common import (
    mlless_config,
    run_mlless,
    run_pywren_workload,
    run_serverful_workload,
)
from .experiments.report import fault_summary_rows, render_table
from .experiments.settings import WORKLOADS, make_workload
from .faults import FAULT_PROFILES

__all__ = [
    "EXIT_OK",
    "EXIT_FAILED",
    "EXIT_USAGE",
    "EXIT_BUDGET",
    "EXIT_UNSTABLE",
    "build_parser",
    "fail",
    "main",
    "write_json",
    "write_text",
]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_UNSTABLE = 4


def fail(message: str) -> int:
    """Report a usage or input error as one ``error:`` line; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def write_text(path: Any, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path: Any, doc: Any) -> None:
    """Write ``doc`` as indented, key-sorted JSON (the report format)."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    # Imported here, not at the top: these modules import the helpers above.
    from . import trace_cli
    from .analysis import cli as lint_cli
    from .analysis import determinism
    from .scenarios import cli as scenario_cli

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLLess reproduction: run training jobs and scenarios, "
        "read traces, and check the code base.",
    )
    subparsers = parser.add_subparsers(required=True, metavar="<command>")
    _add_run_parser(subparsers)
    scenario_cli.add_parser(subparsers)
    trace_cli.add_parser(subparsers)
    lint_cli.add_parser(subparsers)
    determinism.add_parser(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # `repro scenario list | head` closes our stdout early; that is
        # the reader's choice, not an error worth a traceback.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return EXIT_OK


# -- repro run ----------------------------------------------------------


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run",
        help="run one training job: any workload on any system",
        description="Run an MLLess-reproduction training job.",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="pmf-ml10m",
        help="which Table 1 workload to train",
    )
    parser.add_argument(
        "--system", choices=["mlless", "serverful", "pywren"],
        default="mlless", help="which system runs the job",
    )
    parser.add_argument("--workers", type=int, default=12,
                        help="worker/rank pool size")
    parser.add_argument("--v", type=float, default=0.0,
                        help="ISP significance threshold (0 = BSP)")
    parser.add_argument("--autotune", action="store_true",
                        help="enable the scale-in auto-tuner")
    parser.add_argument("--target", type=float, default=None,
                        help="override the convergence loss target")
    parser.add_argument("--deep", action="store_true",
                        help="use the workload's deep target")
    parser.add_argument("--max-steps", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--faults", choices=["off"] + sorted(FAULT_PROFILES), default="off",
        help="inject a named fault profile (mlless only; seed-deterministic)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace (mlless only): Chrome trace JSON at PATH "
        "(Perfetto-loadable), lossless JSONL at PATH.jsonl",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="sim",
        help="execution backend (mlless only): 'sim' = discrete-event "
        "simulation (default), 'local' = real threads + wall-clock time, "
        "'procs' = one OS process per role + shared-memory gradients",
    )
    parser.add_argument("--list", action="store_true",
                        help="list workloads and exit")
    parser.set_defaults(handler=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list:
        rows = []
        for name in sorted(WORKLOADS):
            wl = make_workload(name)
            rows.append(
                {
                    "workload": name,
                    "metric": wl.metric,
                    "target": wl.target_loss,
                    "deep_target": wl.deep_target_loss,
                    "batch": wl.batch_size,
                    "description": wl.description,
                }
            )
        print(render_table(rows, "available workloads"))
        return EXIT_OK

    workload = make_workload(args.workload)
    target = args.target
    if target is None:
        target = workload.deep_target_loss if args.deep else workload.target_loss

    print(
        f"running {args.workload} on {args.system} "
        f"(P={args.workers}, target {workload.metric}={target})..."
    )
    profile = None if args.faults == "off" else FAULT_PROFILES[args.faults]
    # --system is a CLI-only concept, so its refusals live here; what a
    # backend cannot do is refused by the capability table (ValueError below).
    if args.system != "mlless":
        for flag, given in (
            ("--faults", profile is not None),
            ("--trace", args.trace is not None),
            (f"--backend {args.backend}", args.backend != "sim"),
        ):
            if given:
                return fail(f"{flag} is only supported with --system mlless")

    tracer = None
    try:
        if args.system == "mlless":
            config = mlless_config(
                workload, n_workers=args.workers, v=args.v,
                autotune=args.autotune, target_loss=target,
                max_steps=args.max_steps, seed=args.seed,
                faults=profile,
            )
            if args.trace is not None:
                from .trace import Tracer

                tracer = Tracer()
            result = run_mlless(config, tracer=tracer, backend=args.backend)
        elif args.system == "serverful":
            result = run_serverful_workload(
                workload, args.workers, target_loss=target,
                max_steps=args.max_steps, seed=args.seed,
            )
        else:
            result = run_pywren_workload(
                workload, args.workers, target_loss=target,
                max_steps=min(args.max_steps, 60), seed=args.seed,
            )
    except ValueError as exc:
        return fail(str(exc))

    print(render_table([result.summary()], "result"))
    unmetered = TABLE[COST_METERING][args.backend].refused
    if unmetered is not None:
        print(f"({result.exec_time:.2f}s real wall-clock; {unmetered})")
    else:
        print(render_table(
            [{"component": k, "cost_usd": round(v, 6)}
             for k, v in sorted(result.meter.breakdown().items())],
            "cost breakdown",
        ))
    fault_rows = fault_summary_rows(result)
    if fault_rows:
        print(render_table(fault_rows, f"faults ({args.faults})"))
    if tracer is not None:
        from .trace import CostLedger
        from .trace_cli import write_run_trace

        billing = result.meter.faas
        ledger = CostLedger.from_trace(tracer, billing)
        print(render_table(ledger.category_table(),
                           "FaaS cost attribution by category"))
        chrome_path, jsonl_path = write_run_trace(
            tracer, args.trace, billing=billing
        )
        print(f"trace written to {chrome_path} "
              f"(open in https://ui.perfetto.dev); JSONL at {jsonl_path}")
    return EXIT_OK if result.converged or result.total_steps > 0 else EXIT_FAILED
