"""Figure 6: loss-vs-time comparison of all systems.

Per workload, five systems run to a deep convergence target (P = 24):

* PyTorch-like serverful DDP on VMs,
* PyWren-IBM-style map-reduce training (step-capped: it is far from
  converging inside any reasonable window, exactly as in the paper),
* MLLess with BSP ('MLLess'),
* MLLess with ISP ('MLLess + ISP'),
* MLLess with ISP + scale-in auto-tuner ('MLLess + All').

Returns both the loss-vs-time series (for plotting) and the headline
table: time to the deep target and the speedup over serverful.  The
paper's headline: ~15x over PyTorch on the PMF jobs; PyWren never close.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import (
    make_workload,
    mlless_config,
    run_mlless,
    run_pywren_workload,
    run_serverful_workload,
)
from ..cli import render_table
from ..core import RunResult

__all__ = ["fig6_comparison", "run_all_systems", "main"]

SYSTEMS = ("serverful", "pywren", "mlless", "mlless+isp", "mlless+all")


def run_all_systems(
    workload_name: str,
    n_workers: int = 24,
    v: float = 0.7,
    max_steps: int = 1500,
    pywren_step_cap: int = 40,
    seed: int = 3,
    target_loss: Optional[float] = None,
) -> Dict[str, RunResult]:
    """Run the five Fig. 6 systems on one workload; returns name -> result."""
    workload = make_workload(workload_name)
    dataset = workload.dataset(seed=1)
    target = workload.deep_target_loss if target_loss is None else target_loss

    results: Dict[str, RunResult] = {}
    results["serverful"] = run_serverful_workload(
        workload, n_workers, target_loss=target, max_steps=max_steps,
        seed=seed, dataset=dataset,
    )
    results["pywren"] = run_pywren_workload(
        workload, n_workers, target_loss=target, max_steps=pywren_step_cap,
        seed=seed, dataset=dataset,
    )
    variants = {
        "mlless": (0.0, False),
        "mlless+isp": (v, False),
        "mlless+all": (v, True),
    }
    for name, (v_run, tuner) in variants.items():
        config = mlless_config(
            workload, n_workers=n_workers, v=v_run, autotune=tuner,
            target_loss=target, max_steps=max_steps, seed=seed, dataset=dataset,
        )
        results[name] = run_mlless(config)
    return results


def fig6_comparison(
    workload_names: Sequence[str] = ("lr-criteo", "pmf-ml10m", "pmf-ml20m"),
    **kwargs,
) -> List[Dict]:
    """Headline rows: time to the deep target + speedup over serverful."""
    rows: List[Dict] = []
    for name in workload_names:
        workload = make_workload(name)
        target = kwargs.get("target_loss") or workload.deep_target_loss
        results = run_all_systems(name, **kwargs)
        base = results["serverful"].time_to_loss(target)
        for system in SYSTEMS:
            result = results[system]
            reached = result.time_to_loss(target)
            rows.append(
                {
                    "workload": name,
                    "system": system,
                    "time_to_target_s": None if reached is None else round(reached, 1),
                    "speedup_vs_serverful": (
                        None
                        if reached is None or base is None
                        else round(base / reached, 2)
                    ),
                    "final_loss": round(result.final_loss, 4),
                    "steps": result.total_steps,
                    "cost_usd": round(result.total_cost, 5),
                }
            )
    return rows


def main(**kwargs) -> str:
    parts = [
        render_table(
            fig6_comparison(**kwargs),
            "Fig 6: time to deep target and speedup vs serverful (P=24)",
        )
    ]
    return "\n".join(parts)


if __name__ == "__main__":
    print(main())
