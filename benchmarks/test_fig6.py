"""Benchmark: Figure 6 — loss vs time across all five systems."""

import pytest

from repro.experiments import fig6
from repro.cli import render_table
from repro.experiments.report import render_series

from conftest import FULL, emit


@pytest.mark.figure
@pytest.mark.parametrize("workload", ["lr-criteo", "pmf-ml10m", "pmf-ml20m"])
def test_fig6_comparison(benchmark, workload):
    rows = benchmark.pedantic(
        fig6.fig6_comparison,
        kwargs={
            "workload_names": (workload,),
            "n_workers": 24,
            "max_steps": 1500,
            "pywren_step_cap": 40 if FULL else 25,
        },
        rounds=1, iterations=1,
    )
    emit(render_table(rows, f"Fig 6 ({workload}): time to deep target"))

    by_system = {r["system"]: r for r in rows}
    mll_best = min(
        by_system["mlless+isp"]["time_to_target_s"] or 1e18,
        by_system["mlless+all"]["time_to_target_s"] or 1e18,
    )
    serverful = by_system["serverful"]["time_to_target_s"]

    # Headline shape: optimized MLLess converges much faster than the
    # serverful baseline (paper: ~15x on PMF; large gaps on LR too).
    assert serverful is not None, "serverful must converge"
    assert mll_best < 1e18, "optimized MLLess must converge"
    speedup = serverful / mll_best
    if workload.startswith("pmf"):
        assert speedup >= 5.0, f"expected >=5x over serverful, got {speedup:.1f}x"
    else:
        assert speedup >= 2.0, f"expected >=2x over serverful, got {speedup:.1f}x"

    # PyWren is far from the target inside its window (the paper's curves
    # for PyWren-IBM stay well above every other system).
    assert by_system["pywren"]["time_to_target_s"] is None

    # Plain BSP MLLess sits between the optimized variants and serverful.
    bsp = by_system["mlless"]["time_to_target_s"]
    assert bsp is not None and mll_best <= bsp < serverful


@pytest.mark.figure
def test_fig6_loss_curves_printed(benchmark):
    """Emit the actual loss-vs-time series for one workload (plot data)."""
    results = benchmark.pedantic(
        fig6.run_all_systems,
        kwargs={"workload_name": "pmf-ml10m", "n_workers": 24,
                "max_steps": 1200, "pywren_step_cap": 20},
        rounds=1, iterations=1,
    )
    lines = []
    for system, result in results.items():
        times, losses = result.losses()
        lines.append(
            render_series(f"{system:>12}", times - result.started_at, losses)
        )
    emit("Fig 6 (pmf-ml10m) loss-vs-time series:\n" + "\n".join(lines))
    assert len(results) == 5
