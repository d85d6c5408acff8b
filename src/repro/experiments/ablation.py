"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these probe *why* the design works, one
switch at a time:

* **accumulation** — ISP's accumulate-until-significant filter vs. a
  drop-insignificant filter that discards rather than accumulates
  (implemented by resetting the accumulators each step);
* **knee gate** — scale-in gated on knee detection vs. immediate;
* **curve family** — quadratic slow-curve (Eq. 3) vs. reusing the
  power-law family in the slow region;
* **eviction reintegration** — model averaging of the departed replica
  on vs. off.
"""

from __future__ import annotations

from typing import Dict, List

from ..api import make_workload, mlless_config, run_mlless
from ..cli import render_table

__all__ = [
    "ablation_accumulation",
    "ablation_knee_gate",
    "ablation_curve_family",
    "ablation_reintegration",
    "ablation_sync_protocol",
    "ablation_knee_method",
    "main",
]


def ablation_accumulation(seed: int = 3, v: float = 0.7) -> List[Dict]:
    """ISP's accumulate-until-significant vs drop vs absolute top-k.

    Isolates the two ingredients of the ISP filter (§4.1): the relative
    significance test and the accumulation of filtered-out remainders.
    """
    from ..core.filters import DropInsignificantFilter, TopKFilter

    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    variants = {
        "isp (accumulate)": None,
        "drop (no accumulation)": lambda shapes: DropInsignificantFilter(
            v, shapes
        ),
        "top-20% (absolute)": lambda shapes: TopKFilter(0.2, shapes),
    }
    rows = []
    for label, factory in variants.items():
        config = mlless_config(
            workload, n_workers=16, v=v, max_steps=900, seed=seed,
            dataset=dataset,
        )
        config.make_filter = factory
        result = run_mlless(config)
        rows.append(
            {
                "filter": label,
                "exec_time_s": round(result.exec_time, 1),
                "steps": result.total_steps,
                "final_loss": round(result.final_loss, 4),
                "converged": result.converged,
            }
        )
    return rows

_WORKLOAD = "pmf-ml10m"


def _run(n_workers=16, v=0.7, max_steps=900, seed=3, dataset=None, **cfg_overrides):
    workload = make_workload(_WORKLOAD)
    config = mlless_config(
        workload, n_workers=n_workers, v=v, autotune=True,
        max_steps=max_steps, seed=seed, dataset=dataset,
        autotuner_kwargs=cfg_overrides.pop("autotuner_kwargs", None),
    )
    for key, value in cfg_overrides.items():
        setattr(config, key, value)
    return run_mlless(config)


def ablation_knee_gate(seed: int = 3) -> List[Dict]:
    """Knee-gated scale-in vs immediate scale-in."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    for label, ignore in (("knee-gated", False), ("immediate", True)):
        result = _run(
            dataset=dataset, seed=seed,
            autotuner_kwargs={"ignore_knee_gate": ignore},
        )
        rows.append(
            {
                "variant": label,
                "exec_time_s": round(result.exec_time, 1),
                "cost_usd": round(result.total_cost, 5),
                "perf_per_$": round(result.perf_per_dollar, 1),
                "final_loss": round(result.final_loss, 4),
                "workers_end": result.final_worker_count(),
                "converged": result.converged,
            }
        )
    return rows


def ablation_curve_family(seed: int = 3) -> List[Dict]:
    """Quadratic (Eq. 3) vs power-law slow-curve family."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    for family in ("quadratic", "power"):
        result = _run(
            dataset=dataset, seed=seed,
            autotuner_kwargs={"slow_curve_family": family},
        )
        rows.append(
            {
                "slow_curve_family": family,
                "exec_time_s": round(result.exec_time, 1),
                "cost_usd": round(result.total_cost, 5),
                "perf_per_$": round(result.perf_per_dollar, 1),
                "workers_end": result.final_worker_count(),
                "converged": result.converged,
            }
        )
    return rows


def ablation_reintegration(seed: int = 3) -> List[Dict]:
    """Eviction-time model averaging on vs off (ISP, aggressive tuner)."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    for reintegrate in (True, False):
        result = _run(dataset=dataset, seed=seed, reintegrate_on_evict=reintegrate)
        rows.append(
            {
                "reintegrate": reintegrate,
                "exec_time_s": round(result.exec_time, 1),
                "steps": result.total_steps,
                "final_loss": round(result.final_loss, 4),
                "converged": result.converged,
            }
        )
    return rows


def ablation_sync_protocol(seed: int = 3) -> List[Dict]:
    """BSP barrier vs SSP at several staleness bounds (no auto-tuner)."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    variants = [("bsp", 0), ("ssp", 0), ("ssp", 2), ("ssp", 4)]
    for sync, staleness in variants:
        config = mlless_config(
            workload, n_workers=16, v=0.7, max_steps=900, seed=seed,
            dataset=dataset,
        )
        config.sync = sync
        config.ssp_staleness = staleness
        result = run_mlless(config)
        rows.append(
            {
                "sync": sync if sync == "bsp" else f"ssp(s={staleness})",
                "exec_time_s": round(result.exec_time, 1),
                "steps": result.total_steps,
                "step_duration_s": round(result.mean_step_duration(), 4),
                "final_loss": round(result.final_loss, 4),
                "converged": result.converged,
            }
        )
    return rows


def ablation_knee_method(seed: int = 3) -> List[Dict]:
    """Slope-threshold knee heuristic vs Kneedle (both pluggable, §4.2)."""
    workload = make_workload(_WORKLOAD)
    dataset = workload.dataset(seed=1)
    rows = []
    for method in ("slope", "kneedle"):
        result = _run(
            dataset=dataset, seed=seed,
            autotuner_kwargs={"knee_method": method},
        )
        rows.append(
            {
                "knee_method": method,
                "exec_time_s": round(result.exec_time, 1),
                "cost_usd": round(result.total_cost, 5),
                "workers_end": result.final_worker_count(),
                "converged": result.converged,
            }
        )
    return rows


def main() -> str:
    parts = [
        render_table(ablation_accumulation(), "Ablation: update filter"),
        render_table(ablation_knee_gate(), "Ablation: knee gate"),
        render_table(ablation_curve_family(), "Ablation: slow-curve family"),
        render_table(ablation_reintegration(), "Ablation: eviction reintegration"),
        render_table(ablation_sync_protocol(), "Ablation: BSP vs SSP"),
        render_table(ablation_knee_method(), "Ablation: knee method"),
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(main())
