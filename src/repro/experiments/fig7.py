"""Figure 7: convergence under fixed budgets (cost-vs-loss comparison).

Reuses the Fig. 6 runs.  For each workload and each budget in a grid, the
figure reports, per system:

* the best (lowest) loss reached before the cumulative bill crossed the
  budget, and
* the maximum execution time affordable within it (the numbers printed
  above the paper's bars).

The paper's findings, which the reproduction targets: 'MLLess + All'
gives the best loss at every budget; serverful VMs buy the most *time*
per dollar (lower unit price) but convert it to far less progress.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..api import make_workload
from ..cli import render_table
from .fig6 import SYSTEMS, run_all_systems

__all__ = ["fig7_budget_comparison", "main"]

DEFAULT_BUDGETS = (0.03, 0.06, 0.09, 0.15, 0.30)


def fig7_budget_comparison(
    workload_names: Sequence[str] = ("lr-criteo", "pmf-ml10m", "pmf-ml20m"),
    budgets: Sequence[float] = DEFAULT_BUDGETS,
    **kwargs,
) -> List[Dict]:
    """One row per (workload, budget, system)."""
    rows: List[Dict] = []
    for name in workload_names:
        results = run_all_systems(name, **kwargs)
        for budget in budgets:
            for system in SYSTEMS:
                result = results[system]
                best = result.best_loss_within_budget(budget)
                rows.append(
                    {
                        "workload": name,
                        "budget_usd": budget,
                        "system": system,
                        "best_loss": None if best is None else round(best, 4),
                        "affordable_time_s": round(
                            result.time_within_budget(budget), 1
                        ),
                    }
                )
    return rows


def cheapest_to_target(
    workload_names: Sequence[str] = ("pmf-ml10m", "pmf-ml20m"), **kwargs
) -> List[Dict]:
    """Cost to reach the deep target per system (the paper's 6.3x claim)."""
    rows: List[Dict] = []
    for name in workload_names:
        workload = make_workload(name)
        target = kwargs.get("target_loss") or workload.deep_target_loss
        results = run_all_systems(name, **kwargs)
        base = results["serverful"].cost_to_loss(target)
        for system in SYSTEMS:
            cost = results[system].cost_to_loss(target)
            rows.append(
                {
                    "workload": name,
                    "system": system,
                    "cost_to_target_usd": None if cost is None else round(cost, 5),
                    "savings_vs_serverful": (
                        None
                        if cost is None or base is None
                        else round(base / cost, 2)
                    ),
                }
            )
    return rows


def main(**kwargs) -> str:
    return render_table(
        fig7_budget_comparison(**kwargs),
        "Fig 7: best loss and affordable time under fixed budgets",
    )


if __name__ == "__main__":
    print(main())
