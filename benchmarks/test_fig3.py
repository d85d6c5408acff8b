"""Benchmark: Figure 3 — thread-level parallelism inside a function."""

import pytest

from repro.experiments import fig3
from repro.cli import render_table

from conftest import emit


@pytest.mark.figure
def test_fig3_thread_speedup(benchmark):
    rows = benchmark.pedantic(fig3.fig3_thread_speedup, rounds=1, iterations=1)
    emit(render_table(rows, "Fig 3: 2-thread speedup vs function memory"))

    by_memory = {r["memory_mb"]: r["speedup_2_threads"] for r in rows}
    # Paper's observations: no meaningful TLP even at the full 2 GB
    # allocation, and *worse* than single-threaded at 1536 MiB.
    assert by_memory[2048] <= 1.2
    assert by_memory[1536] < 1.0
    # CPU share grows with memory.
    shares = [r["cpu_share_vcpus"] for r in rows]
    assert shares == sorted(shares)
