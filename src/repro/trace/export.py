"""Pure trace serializers: Chrome trace-event JSON and JSONL round-trip.

Everything here returns data (dicts, line iterators, parsed objects) and
never touches the filesystem — file writing lives in
:mod:`repro.trace.cli`, outside the simulated layers, so the rest of
the package stays sim-lint clean.

Formats:

* :func:`chrome_trace` — the Chrome trace-event format (``{"traceEvents":
  [...]}``) loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Spans become complete (``ph: "X"``) events,
  instant events become ``ph: "i"``, and each activation gets its own
  named track via ``thread_name`` metadata.  Timestamps are microseconds
  of *simulated* time.
* :func:`to_jsonl_lines` / :func:`parse_jsonl` — a lossless native dump
  (one JSON object per line: a meta header, then spans, events and —
  optionally — activation billing records) that round-trips back into
  :class:`TraceData`, so every analysis in :mod:`repro.trace` works on a
  saved trace exactly as on a live tracer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .tracer import Span, TraceEvent

__all__ = ["chrome_trace", "to_jsonl_lines", "parse_jsonl", "TraceData"]

JSONL_VERSION = 1


class TraceData:
    """A parsed trace: the duck-type shared with a live ``Tracer``.

    ``spans`` and ``events`` satisfy every analysis entry point
    (:class:`~repro.trace.ledger.CostLedger`,
    :func:`~repro.trace.critical.critical_path`, :func:`chrome_trace`);
    ``records``/``rate_per_gb_s`` restore the billing side when the dump
    included it (see :attr:`billing`).
    """

    def __init__(
        self,
        spans: List[Span],
        events: List[TraceEvent],
        records: Optional[List[Any]] = None,
        rate_per_gb_s: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.spans = spans
        self.events = events
        self.records = records if records is not None else []
        self.rate_per_gb_s = rate_per_gb_s
        self.meta = meta if meta is not None else {}

    @property
    def billing(self) -> Any:
        """A ``FaaSBilling`` rebuilt from the embedded records.

        Raises :class:`ValueError` when the dump carried no billing data.
        """
        if not self.records:
            raise ValueError(
                "this trace was saved without billing records; re-export "
                "with a billing object to enable cost analysis"
            )
        from ..faas.billing import FaaSBilling

        rate = self.rate_per_gb_s
        if rate is None:
            return FaaSBilling(records=list(self.records))
        return FaaSBilling(rate_per_gb_s=rate, records=list(self.records))

    def __repr__(self) -> str:
        return (
            f"<TraceData spans={len(self.spans)} events={len(self.events)} "
            f"records={len(self.records)}>"
        )


# -- Chrome trace-event format ------------------------------------------


def _track_label(span: Span, spans: List[Span]) -> str:
    """Perfetto track for a span: its enclosing activation (or role)."""
    current: Optional[Span] = span
    while current is not None:
        if current.category == "invoke":
            worker = current.attrs.get("worker")
            if worker is not None:
                return f"worker-{worker}"
            role = current.attrs.get("role")
            if role is not None:
                return str(role)
            return str(current.attrs.get("function", current.name))
        if current.category == "job":
            return "driver"
        parent = current.parent_id
        current = spans[parent] if parent >= 0 else None
    return "background"


def chrome_trace(trace: Any) -> Dict[str, Any]:
    """The trace as a Chrome trace-event JSON object (Perfetto-loadable).

    Track (tid) assignment is deterministic: first appearance order of
    each track label across spans then events.
    """
    spans: List[Span] = list(trace.spans)
    events: List[TraceEvent] = list(trace.events)
    horizon = 0.0
    for span in spans:
        if span.end is not None and span.end > horizon:
            horizon = span.end
        elif span.start > horizon:
            horizon = span.start

    tids: Dict[str, int] = {}

    def tid_of(label: str) -> int:
        if label not in tids:
            tids[label] = len(tids) + 1
        return tids[label]

    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        label = _track_label(span, spans)
        end = span.end if span.end is not None else horizon
        trace_events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.start * 1e6,
                "dur": max(end - span.start, 0.0) * 1e6,
                "pid": 1,
                "tid": tid_of(label),
                "args": dict(span.attrs),
            }
        )
    for event in events:
        parent = spans[event.parent_id] if event.parent_id >= 0 else None
        label = _track_label(parent, spans) if parent is not None else "background"
        trace_events.append(
            {
                "ph": "i",
                "s": "t",
                "name": event.name,
                "cat": event.category,
                "ts": event.ts * 1e6,
                "pid": 1,
                "tid": tid_of(label),
                "args": dict(event.attrs),
            }
        )
    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "args": {"name": "simulated run"},
        }
    ]
    for label in tids:  # insertion-ordered dict: deterministic
        metadata.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tids[label],
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "source": "repro.trace"},
    }


# -- JSONL round-trip ---------------------------------------------------


def to_jsonl_lines(trace: Any, billing: Any = None) -> Iterator[str]:
    """Serialize a trace (and optionally its billing) one JSON per line."""
    spans: List[Span] = list(trace.spans)
    events: List[TraceEvent] = list(trace.events)
    header: Dict[str, Any] = {
        "kind": "meta",
        "version": JSONL_VERSION,
        "n_spans": len(spans),
        "n_events": len(events),
    }
    if billing is not None:
        header["rate_per_gb_s"] = billing.rate_per_gb_s
        header["n_records"] = len(billing.records)
    yield json.dumps(header, sort_keys=True)
    for span in spans:
        yield json.dumps({"kind": "span", **span.to_dict()}, sort_keys=True)
    for event in events:
        yield json.dumps({"kind": "event", **event.to_dict()}, sort_keys=True)
    if billing is not None:
        for r in billing.records:
            yield json.dumps(
                {
                    "kind": "record",
                    "function": r.function,
                    "activation_id": r.activation_id,
                    "memory_mb": r.memory_mb,
                    "start": r.start,
                    "end": r.end,
                    "cold": r.cold,
                    "ok": r.ok,
                    "pool": r.pool,
                    "container_id": r.container_id,
                },
                sort_keys=True,
            )


def parse_jsonl(lines: Iterable[str]) -> TraceData:
    """Rebuild a :class:`TraceData` from :func:`to_jsonl_lines` output."""
    spans: List[Span] = []
    events: List[TraceEvent] = []
    records: List[Any] = []
    rate: Optional[float] = None
    meta: Dict[str, Any] = {}
    record_cls = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.get("kind")
        if kind == "meta":
            meta = obj
            rate = obj.get("rate_per_gb_s")
        elif kind == "span":
            spans.append(
                Span(
                    span_id=obj["id"],
                    parent_id=obj["parent"],
                    category=obj["category"],
                    name=obj["name"],
                    start=obj["start"],
                    end=obj["end"],
                    attrs=obj.get("attrs") or {},
                )
            )
        elif kind == "event":
            events.append(
                TraceEvent(
                    event_id=obj["id"],
                    parent_id=obj["parent"],
                    category=obj["category"],
                    name=obj["name"],
                    ts=obj["ts"],
                    attrs=obj.get("attrs") or {},
                )
            )
        elif kind == "record":
            if record_cls is None:
                from ..faas.billing import ActivationRecord

                record_cls = ActivationRecord
            records.append(
                record_cls(
                    function=obj["function"],
                    activation_id=obj["activation_id"],
                    memory_mb=obj["memory_mb"],
                    start=obj["start"],
                    end=obj["end"],
                    cold=obj["cold"],
                    ok=obj["ok"],
                    pool=obj.get("pool", "faas"),
                    container_id=obj.get("container_id", -1),
                )
            )
        else:
            raise ValueError(f"unknown trace line kind {kind!r}")
    spans.sort(key=lambda s: s.span_id)
    events.sort(key=lambda e: e.event_id)
    return TraceData(spans, events, records=records, rate_per_gb_s=rate, meta=meta)
