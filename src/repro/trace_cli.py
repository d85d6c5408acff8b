"""Host-side trace tooling: file writers and the ``repro trace`` subcommands.

Lives outside the simulated layers (like :mod:`repro.cli`) because it
opens files and prints; everything it calls in :mod:`repro.trace` is pure.

Usage::

    repro trace summary  RUN.trace.json.jsonl         # text report
    repro trace cost     RUN.trace.json.jsonl         # cost attribution
    repro trace chrome   RUN.trace.json.jsonl -o t.json   # re-export

Traces are produced by the ``--trace PATH`` option of
``examples/quickstart.py``, ``repro run`` and the fig scripts:
PATH receives the Chrome trace-event JSON (drag into
https://ui.perfetto.dev) and ``PATH.jsonl`` the lossless dump these
subcommands read.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Tuple

from .cli import EXIT_OK, fail, write_text
from .experiments.report import render_table
from .trace import (
    CostLedger,
    TraceData,
    chrome_trace,
    critical_path,
    parse_jsonl,
    straggler_report,
    to_jsonl_lines,
)

__all__ = [
    "add_parser",
    "write_chrome_trace",
    "write_jsonl",
    "write_run_trace",
    "summary_text",
]


# -- file writers -------------------------------------------------------


def write_chrome_trace(trace: Any, path: str) -> str:
    """Write the Chrome trace-event JSON for ``trace`` to ``path``."""
    write_text(path, json.dumps(chrome_trace(trace)) + "\n")
    return path


def write_jsonl(trace: Any, path: str, billing: Any = None) -> str:
    """Write the lossless JSONL dump (spans, events, billing records)."""
    write_text(
        path, "".join(f"{line}\n" for line in to_jsonl_lines(trace, billing=billing))
    )
    return path


def write_run_trace(trace: Any, path: str, billing: Any = None) -> Tuple[str, str]:
    """Write both exports for one run: Chrome JSON at ``path``, JSONL next
    to it at ``path + ".jsonl"``.  Returns the two paths."""
    chrome_path = write_chrome_trace(trace, path)
    jsonl_path = write_jsonl(trace, path + ".jsonl", billing=billing)
    return chrome_path, jsonl_path


# -- text summary -------------------------------------------------------


def summary_text(trace: Any, billing: Any = None, max_steps: int = 12) -> str:
    """Tables: cost by category (when billing is known), critical path,
    stragglers."""
    sections = []
    if billing is not None:
        ledger = CostLedger.from_trace(trace, billing)
        sections.append(
            render_table(ledger.category_table(), "cost attribution by category")
        )
        rec = ledger.reconcile()
        sections.append(
            f"bill: ${rec['billing_total_cost']:.6f}  "
            f"ledger: ${rec['ledger_row_cost']:.6f}  "
            f"(abs error {rec['abs_error']:.2e}; "
            f"{100 * rec['attributed_fraction']:.2f}% of GB-s attributed)"
        )
    path_rows = critical_path(trace)
    if path_rows:
        shown = path_rows
        if len(path_rows) > max_steps:
            stride = max(1, len(path_rows) // max_steps)
            shown = path_rows[::stride]
        sections.append(
            render_table(shown, f"critical path ({len(path_rows)} steps)")
        )
        sections.append(render_table(straggler_report(trace), "straggler report"))
    if not sections:
        sections.append("(no step spans and no billing records in this trace)")
    return "\n\n".join(sections)


# -- subcommands --------------------------------------------------------


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="analyse and convert saved simulation traces (.jsonl)",
        description="Analyse and convert saved simulation traces (.jsonl).",
    )
    sub = parser.add_subparsers(required=True, metavar="<command>")
    p_summary = sub.add_parser(
        "summary", help="text report: cost breakdown, critical path, stragglers"
    )
    p_summary.add_argument("trace", help="JSONL trace file (PATH.jsonl of --trace PATH)")
    p_summary.set_defaults(handler=_on_trace(_cmd_summary))
    p_cost = sub.add_parser("cost", help="cost-attribution ledger tables")
    p_cost.add_argument("trace")
    p_cost.add_argument(
        "--by",
        choices=["category", "phase", "worker", "function"],
        default="category",
        help="grouping dimension (default: category)",
    )
    p_cost.set_defaults(handler=_on_trace(_cmd_cost))
    p_chrome = sub.add_parser(
        "chrome", help="re-export as Chrome trace-event JSON (Perfetto)"
    )
    p_chrome.add_argument("trace")
    p_chrome.add_argument("-o", "--output", required=True, metavar="PATH")
    p_chrome.set_defaults(handler=_on_trace(_cmd_chrome))


def _on_trace(command: Callable[[Any, TraceData], int]) -> Callable[[Any], int]:
    """Handler that loads ``args.trace`` and hands it to ``command``."""

    def handler(args: Any) -> int:
        try:
            with open(args.trace) as fh:
                data = parse_jsonl(fh)
        except (OSError, ValueError, KeyError) as exc:
            return fail(f"cannot read trace {args.trace!r}: {exc}")
        return command(args, data)

    return handler


def _cmd_summary(args: Any, data: TraceData) -> int:
    billing = data.billing if data.records else None
    print(summary_text(data, billing=billing))
    return EXIT_OK


def _cmd_cost(args: Any, data: TraceData) -> int:
    if not data.records:
        return fail(
            "trace has no billing records; re-run the experiment "
            "with --trace to embed them"
        )
    ledger = CostLedger.from_trace(data, data.billing)
    grouped = {
        "category": ledger.by_category,
        "phase": ledger.by_phase,
        "worker": ledger.by_worker,
        "function": ledger.by_function,
    }[args.by]()
    rows = [
        {
            args.by: key,
            "seconds": round(grouped[key]["seconds"], 4),
            "gb_s": round(grouped[key]["gb_s"], 4),
            "cost_usd": round(grouped[key]["cost"], 8),
        }
        for key in sorted(grouped, key=lambda k: (-grouped[k]["cost"], str(k)))
    ]
    print(render_table(rows, f"cost attribution by {args.by}"))
    rec = ledger.reconcile()
    print(
        f"\nbill total: ${rec['billing_total_cost']:.6f}  "
        f"attributed: {100 * rec['attributed_fraction']:.2f}% of GB-s  "
        f"(row-sum error {rec['abs_error']:.2e})"
    )
    return EXIT_OK


def _cmd_chrome(args: Any, data: TraceData) -> int:
    out = write_chrome_trace(data, args.output)
    print(f"chrome trace written to {out} (open in https://ui.perfetto.dev)")
    return EXIT_OK
