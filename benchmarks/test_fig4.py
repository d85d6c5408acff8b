"""Benchmark: Figure 4 — ISP speedup vs significance threshold."""

import pytest

from repro.experiments import fig4
from repro.cli import render_table

from conftest import FULL, emit

THRESHOLDS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9) if FULL else (0.0, 0.3, 0.7)


@pytest.mark.figure
@pytest.mark.parametrize(
    "workload", ["lr-criteo", "pmf-ml10m", "pmf-ml20m"]
)
def test_fig4_significance_sweep(benchmark, workload):
    rows = benchmark.pedantic(
        fig4.fig4_significance_sweep,
        kwargs={
            "workload_names": (workload,),
            "thresholds": THRESHOLDS,
            "n_workers": 24,
            "max_steps": 1200,
        },
        rounds=1, iterations=1,
    )
    emit(render_table(rows, f"Fig 4 ({workload}): normalized time vs v"))

    assert all(r["converged"] for r in rows)
    best = min(r["normalized_time"] for r in rows)
    if workload.startswith("pmf"):
        # PMF benefits substantially from ISP (paper: up to 3x on ML-20M).
        assert best <= 0.75, f"expected >=1.33x ISP speedup, got {1/best:.2f}x"
    else:
        # LR benefits at most mildly (paper: small gains).
        assert best >= 0.55, "LR should not enjoy PMF-sized ISP gains"
