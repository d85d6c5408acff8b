"""Hot-path micro-op suite (``repro bench``).

Times the sparse kernels, n-way merges, checkpoint snapshots, pipeline
stage slices and DES event churn; ``repro bench run`` writes
``BENCH_<name>.json`` with p50/p95 wall-nanoseconds **and output
checksums**.  ``repro bench compare`` checks such a document against
the committed ``BENCH_reference.json``: every reference op must
reappear with a bit-identical checksum.  Timings are informational —
the timing authority is ``benchmarks/e2e``.

See DESIGN.md "Hot-path performance" for what is cached where and why
the caches cannot go stale.
"""

from .ops import ALL_OPS
from .runner import BenchOp, CompareResult, checksum_bytes, compare, run_suite

__all__ = [
    "ALL_OPS",
    "BenchOp",
    "CompareResult",
    "checksum_bytes",
    "compare",
    "run_suite",
]
