"""Figure 4: ISP's effect on time-to-convergence vs. significance threshold.

For each workload, MLLess runs to its convergence target with the
significance threshold v swept from 0 (BSP baseline) upward; the figure
reports execution time *normalized to the BSP run*.  The paper's findings,
which the reproduction targets:

* PMF benefits strongly — up to ~3x on the ML-20M job — because the
  embedding updates compress well under the relative-significance filter;
* LR benefits only mildly, because sparsity already acts as an intrinsic
  communication filter.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..api import make_workload, mlless_config, run_mlless
from ..cli import render_table

__all__ = ["fig4_significance_sweep", "main"]

DEFAULT_THRESHOLDS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)


def fig4_significance_sweep(
    workload_names: Sequence[str] = ("lr-criteo", "pmf-ml10m", "pmf-ml20m"),
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    n_workers: int = 24,
    max_steps: int = 1200,
    seed: int = 3,
) -> List[Dict]:
    """One row per (workload, v): execution time until convergence."""
    rows: List[Dict] = []
    for name in workload_names:
        workload = make_workload(name)
        dataset = workload.dataset(seed=1)
        baseline_time = None
        for v in thresholds:
            config = mlless_config(
                workload,
                n_workers=n_workers,
                v=v,
                dataset=dataset,
                max_steps=max_steps,
                seed=seed,
            )
            result = run_mlless(config)
            if v == 0.0:
                baseline_time = result.exec_time
            rows.append(
                {
                    "workload": name,
                    "v": v,
                    "exec_time_s": round(result.exec_time, 2),
                    "normalized_time": round(
                        result.exec_time / baseline_time, 3
                    )
                    if baseline_time
                    else None,
                    "steps": result.total_steps,
                    "converged": result.converged,
                    "final_loss": round(result.final_loss, 4),
                    "cost_usd": round(result.total_cost, 5),
                }
            )
    return rows


def main(**kwargs) -> str:
    return render_table(
        fig4_significance_sweep(**kwargs),
        "Fig 4: normalized execution time until convergence vs threshold v",
    )


if __name__ == "__main__":
    print(main())
