"""Zero-perturbation observability for simulated training runs.

Span tracing (:mod:`~repro.trace.tracer`), cost attribution against the
FaaS bill (:mod:`~repro.trace.ledger`), per-step critical-path and
straggler analysis (:mod:`~repro.trace.critical`), and pure exporters
(:mod:`~repro.trace.export`).  File writing and the CLI live in
:mod:`repro.trace.cli`; run ``repro trace summary|cost|chrome`` on a
saved ``.jsonl`` trace.

Invariant: enabling tracing never changes the simulation — the tracer
only reads ``env.now``/``env.active_process``, so a traced run's
determinism digest is bit-identical to an untraced one (enforced by
``repro determinism --trace-invariance``).
"""

from .tracer import (
    NO_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    span_children,
)
from .ledger import CostLedger
from .critical import critical_path, step_spans, straggler_report
from .export import TraceData, chrome_trace, parse_jsonl, to_jsonl_lines

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NO_SPAN",
    "span_children",
    "CostLedger",
    "critical_path",
    "straggler_report",
    "step_spans",
    "TraceData",
    "chrome_trace",
    "to_jsonl_lines",
    "parse_jsonl",
]
