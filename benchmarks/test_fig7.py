"""Benchmark: Figure 7 — convergence under fixed budgets; cost savings."""

import pytest

from repro.experiments import fig7
from repro.cli import render_table

from conftest import FULL, emit

BUDGETS = (0.03, 0.06, 0.09, 0.15, 0.30) if FULL else (0.03, 0.09, 0.30)


@pytest.mark.figure
def test_fig7_budget_comparison(benchmark):
    rows = benchmark.pedantic(
        fig7.fig7_budget_comparison,
        kwargs={
            "workload_names": ("pmf-ml10m",),
            "budgets": BUDGETS,
            "n_workers": 24,
            "max_steps": 1500,
            "pywren_step_cap": 25,
        },
        rounds=1, iterations=1,
    )
    emit(render_table(rows, "Fig 7 (pmf-ml10m): best loss under fixed budgets"))

    # Per budget: 'mlless+all' reaches the best (or tied-best) loss among
    # systems that got any loss report at all — the paper's key claim.
    for budget in BUDGETS:
        at_budget = {
            r["system"]: r for r in rows if r["budget_usd"] == budget
        }
        losses = {
            s: r["best_loss"]
            for s, r in at_budget.items()
            if r["best_loss"] is not None
        }
        if "mlless+all" in losses and len(losses) > 1:
            best = min(losses.values())
            assert losses["mlless+all"] <= best + 0.02

    # Serverful VMs buy the most raw time per dollar (lower unit price).
    for budget in BUDGETS:
        at_budget = {r["system"]: r for r in rows if r["budget_usd"] == budget}
        assert (
            at_budget["serverful"]["affordable_time_s"]
            >= at_budget["mlless+all"]["affordable_time_s"]
        )


@pytest.mark.figure
def test_fig7_cost_savings_to_target(benchmark):
    rows = benchmark.pedantic(
        fig7.cheapest_to_target,
        kwargs={
            "workload_names": ("pmf-ml10m",) if not FULL else
            ("pmf-ml10m", "pmf-ml20m"),
            "n_workers": 24,
            "max_steps": 1500,
            "pywren_step_cap": 20,
        },
        rounds=1, iterations=1,
    )
    emit(render_table(rows, "Fig 7 companion: cost to reach deep target"))

    by = {(r["workload"], r["system"]): r for r in rows}
    for workload in {r["workload"] for r in rows}:
        best = by[(workload, "mlless+all")]["savings_vs_serverful"]
        isp = by[(workload, "mlless+isp")]["savings_vs_serverful"]
        top = max(v for v in (best, isp) if v is not None)
        # Paper: 4.9x-6.3x cheaper than PyTorch on the PMF jobs.
        assert top >= 3.0, f"expected >=3x cost savings, got {top}"
