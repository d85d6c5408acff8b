"""Microbenchmark runner: time registered ops, checksum their outputs.

Methodology
-----------

Each :class:`BenchOp` builds its workload once (``make_state``), runs a
few untimed warmup repetitions, then times ``reps`` calls of ``run``
with ``time.perf_counter_ns``.  Ops that mutate their input get a fresh
per-rep payload from ``prepare`` *outside* the timed region, so the
numbers measure the kernel, not the copy.  The report records p50/p95
wall-nanoseconds **and a sha256 checksum of the final output**, so a
change that alters results cannot silently pass — :func:`compare`
fails on any checksum that drifted from the reference document.

``portable`` marks ops whose checksum is expected to be bit-stable
across machines (integer manipulation, sequential float accumulation).
Ops built on BLAS GEMMs (the pipeline stage slices) are non-portable:
their checksum is only comparable on one machine, and
``compare(..., portable_only=True)`` skips them (what CI does when
checking a runner's output against the committed ``BENCH_reference.json``).

Timings are informational: the timing authority is ``benchmarks/e2e``.
"""

from __future__ import annotations

import gc
import hashlib
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "BenchOp",
    "CompareResult",
    "checksum_bytes",
    "compare",
    "run_suite",
]

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: (reps, warmup) per group for full runs; --quick cuts reps, never sizes
_FULL_REPS = {
    "kernel": (30, 3),
    "merge": (30, 3),
    "scatter": (30, 3),
    "core": (20, 2),
    "sim": (10, 1),
    "simkernel": (10, 2),
    "pipeline": (20, 2),
    "platform": (3, 1),
}
_QUICK_REPS = {
    "kernel": (5, 1),
    "merge": (5, 1),
    "scatter": (5, 1),
    "core": (5, 1),
    "sim": (3, 1),
    "simkernel": (3, 1),
    "pipeline": (5, 1),
    "platform": (2, 0),
}


@dataclass(frozen=True)
class BenchOp:
    """One registered microbenchmark.

    ``run(state, payload)`` is the timed region; ``prepare(state)`` (when
    set) produces a fresh ``payload`` before every rep, untimed — use it
    for ops that mutate their input.  ``checksum(output)`` hashes the
    final rep's return value.
    """

    name: str
    group: str
    make_state: Callable[[], Any]
    run: Callable[[Any, Any], Any]
    checksum: Callable[[Any], str]
    prepare: Optional[Callable[[Any], Any]] = None
    portable: bool = True
    note: str = ""


def checksum_bytes(*chunks: bytes) -> str:
    """sha256 over a sequence of byte chunks (length-prefixed)."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _percentile_ns(samples: Sequence[int], q: float) -> int:
    return int(np.percentile(np.asarray(samples, dtype=np.int64), q))


def _time_op(op: BenchOp, reps: int, warmup: int) -> Dict[str, Any]:
    state = op.make_state()
    for _ in range(warmup):
        payload = op.prepare(state) if op.prepare else None
        op.run(state, payload)
    samples: List[int] = []
    output: Any = None
    # Collector pauses would otherwise land inside arbitrary reps and
    # skew percentiles; collect between reps (untimed) instead.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            payload = op.prepare(state) if op.prepare else None
            gc.collect()
            start = time.perf_counter_ns()
            output = op.run(state, payload)
            samples.append(time.perf_counter_ns() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    entry = {
        "op": op.name,
        "group": op.group,
        "reps": reps,
        "p50_ns": _percentile_ns(samples, 50),
        "p95_ns": _percentile_ns(samples, 95),
        "p99_ns": _percentile_ns(samples, 99),
        "checksum": op.checksum(output),
        "portable_checksum": op.portable,
    }
    if op.note:
        entry["note"] = op.note
    return entry


def run_suite(
    ops: Sequence[BenchOp],
    name: str,
    quick: bool = False,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run ``ops`` (optionally filtered to ``only``) into a result doc."""
    selected = [op for op in ops if only is None or op.name in only]
    if only is not None:
        known = {op.name for op in ops}
        missing = [n for n in only if n not in known]
        if missing:
            raise ValueError(f"unknown ops: {', '.join(missing)}")
    reps_table = _QUICK_REPS if quick else _FULL_REPS
    results = []
    for op in selected:
        if progress:
            progress(f"  {op.name} ...")
        reps, warmup = reps_table.get(op.group, (10, 1))
        results.append(_time_op(op, reps, warmup))
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "ops": results,
    }


@dataclass
class CompareResult:
    """Outcome of diffing a new benchmark document against a reference."""

    ok: bool
    lines: List[str] = field(default_factory=list)


def compare(
    baseline: Dict[str, Any],
    new: Dict[str, Any],
    portable_only: bool = False,
) -> CompareResult:
    """Diff two result documents: every baseline op must reappear unchanged.

    An op of ``baseline`` that ``new`` lacks fails, as does one whose
    checksum differs (restricted to portable ops when ``portable_only``
    — the cross-machine CI mode).  The p50 speedup is printed per op
    for information only.
    """
    result = CompareResult(ok=True)
    base_ops = {entry["op"]: entry for entry in baseline["ops"]}
    new_ops = {entry["op"]: entry for entry in new["ops"]}
    for op_name, base in base_ops.items():
        entry = new_ops.get(op_name)
        if entry is None:
            result.ok = False
            result.lines.append(f"FAIL: {op_name}: missing from new results")
            continue
        both_portable = base["portable_checksum"] and entry["portable_checksum"]
        if portable_only and not both_portable:
            result.lines.append(f"skip: {op_name}: non-portable checksum")
        elif base["checksum"] != entry["checksum"]:
            result.ok = False
            result.lines.append(
                f"FAIL: {op_name}: checksum drift "
                f"({base['checksum'][:12]}… -> {entry['checksum'][:12]}…) — "
                "the optimization changed numeric results"
            )
        speedup = base["p50_ns"] / max(entry["p50_ns"], 1)
        result.lines.append(f"ok:   {speedup:6.2f}x  {op_name} ({entry['group']})")
    for op_name in new_ops:
        if op_name not in base_ops:
            result.lines.append(f"note: {op_name}: new op (no baseline)")
    return result
