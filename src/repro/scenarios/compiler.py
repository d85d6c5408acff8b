"""Lower a :class:`ScenarioSpec` onto the repo's execution seams and run it.

The compiler owns *how* a declarative scenario becomes actual work:

* ``kind = "single-job"`` → :func:`repro.api.run_mlless`
  on the requested backend (``sim`` / ``local`` / ``procs``), with fault
  profiles, span tracing and pricing threaded into the simulated world,
  and an optional right-sizing sweep over (workers, ISP threshold);
* ``kind = "platform"`` → :func:`repro.platform.scenario.run_scenario`
  (and optionally :func:`run_isolated_baseline`), handed the spec's
  traffic/job-mix/pool/pricing sections as they are.

The output is one KPI payload (see :mod:`repro.scenarios.kpi`) whose
reconciliation block has already been *enforced* — a run whose invoices
or cost breakdown fail to reproduce the bill raises
:class:`~repro.scenarios.kpi.ReconciliationError` instead of reporting
partial cost.  Deterministic scenarios yield digest-identical payloads
at the same seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from ..api import build_world, make_workload, mlless_config, run_mlless
from ..core.capabilities import COST_METERING, TABLE, WORLD, supports
from .kpi import (
    evaluate_budget,
    finalize_report,
    reconcile_platform,
    reconcile_single_job,
)
from .spec import JobMixSpec, PoolSpec, ScenarioSpec, TrafficSpec

__all__ = ["run_scenario_spec", "KPI_SCHEMA"]

KPI_SCHEMA = "repro.scenarios/kpi/v1"

Progress = Optional[Callable[[str], None]]


def run_scenario_spec(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    progress: Progress = None,
) -> Dict[str, Any]:
    """Run ``spec`` end-to-end and return its finalized KPI payload.

    ``seed`` overrides the spec's seed (the CLI's ``--seed``);
    ``progress`` receives one human-readable line per sub-run.
    """
    if seed is not None:
        spec = replace(spec, seed=seed)
    payload: Dict[str, Any] = {
        "schema": KPI_SCHEMA,
        "name": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "deterministic": spec.deterministic,
        "spec": spec.to_dict(),
    }
    if spec.kind == "platform":
        _run_platform(spec, payload, progress)
    else:
        _run_single_job(spec, payload, progress)
    payload["budget"] = evaluate_budget(spec.budget, payload["kpis"])
    return finalize_report(_jsonify(payload))


# -- single-job lowering ----------------------------------------------------


def _run_single_job(spec: ScenarioSpec, payload: Dict[str, Any],
                    progress: Progress) -> None:
    wl = spec.workload
    combos = (
        spec.sweep.combos(wl.workers, wl.isp_threshold)
        if spec.sweep is not None
        else [(wl.workers, wl.isp_threshold)]
    )
    profile = (
        spec.faults.to_profile(spec.name) if spec.faults is not None else None
    )
    workload = make_workload(wl.name)
    dataset = None  # built by the first point, reused (immutable) by the rest
    runs: List[Dict[str, Any]] = []
    for workers, v in combos:
        if progress is not None:
            progress(
                f"[{spec.name}] {wl.name} on {wl.backend}: "
                f"workers={workers} isp_threshold={v} sync={wl.sync}"
                + (
                    f" stages={wl.stages} micro_batches={wl.micro_batches}"
                    if wl.kind == "mlp-pipeline"
                    else ""
                )
            )
        config = mlless_config(
            workload,
            n_workers=workers,
            v=v,
            autotune=wl.autotune,
            target_loss=wl.target_loss,
            max_steps=wl.max_steps,
            seed=spec.seed,
            dataset=dataset,
            faults=profile,
            # Adaptive owns its own straggler response; the spec layer
            # already rejects crash rates for non-BSP syncs.
            fault_tolerance=(
                False if wl.sync != "bsp" and profile is not None else None
            ),
            sync=wl.sync,
            pipeline_stages=wl.stages,  # both 1 unless kind = "mlp-pipeline"
            micro_batches=wl.micro_batches,
        )
        dataset = config.dataset
        world = tracer = None
        if supports(WORLD, wl.backend):
            if spec.report.critical_path:
                from ..trace import Tracer

                tracer = Tracer()
            world = build_world(seed=config.seed, faults=config.faults,
                                tracer=tracer)
            # The scenario's pricing table is the billing rate for this
            # world; the default spec reproduces the paper's Table 2.
            world.platform.billing.rate_per_gb_s = spec.pricing.rate_per_gb_s
        result = run_mlless(config, world=world, backend=wl.backend)
        runs.append(_single_run_row(spec, result, tracer, workers, v))
    payload["runs"] = runs
    if len(runs) > 1:
        payload["recommendation"] = _recommend(runs, spec.sweep.speed_tolerance)
    payload["kpis"] = _single_kpis(runs)
    payload["reconciliation"] = _single_reconciliation_summary(runs)


def _single_run_row(spec: ScenarioSpec, result, tracer,
                    workers: int, v: float) -> Dict[str, Any]:
    wl = spec.workload
    row: Dict[str, Any] = {
        "workers": workers,
        "isp_threshold": v,
        "backend": wl.backend,
        "sync": wl.sync,
        "exec_time_s": result.exec_time,
        "converged": result.converged,
        "final_loss": result.final_loss,
        "steps": result.total_steps,
    }
    if wl.kind == "mlp-pipeline":
        row["stages"] = wl.stages
        row["micro_batches"] = wl.micro_batches
    if supports(COST_METERING, wl.backend):
        row["wall_time_s"] = result.wall_time
        row["total_cost_usd"] = result.total_cost
        row["cost_breakdown_usd"] = {
            name: cost for name, cost in sorted(result.meter.breakdown().items())
        }
        target = result.monitor.series("loss").time_to_reach
        threshold = (
            wl.target_loss
            if wl.target_loss is not None
            else make_workload(wl.name).target_loss
        )
        reached = target(threshold)
        row["time_to_loss_s"] = (
            None if reached is None else reached - result.started_at
        )
        row["faults_injected"] = int(result.extras.get("faults_injected", 0))
        row["faults_recovered"] = int(result.extras.get("faults_recovered", 0))
        row["reconciliation"] = reconcile_single_job(result, tracer)
        if tracer is not None:
            row["critical_path"] = _critical_path_summary(tracer)
    else:
        row["reconciliation"] = {"skipped": TABLE[COST_METERING][wl.backend].refused}
    return row


def _critical_path_summary(tracer) -> Dict[str, Any]:
    """Aggregate the per-step critical path into a compact block."""
    from ..trace import critical_path

    rows = critical_path(tracer)
    categories: Dict[str, int] = {}
    skew = 0.0
    barrier = 0.0
    for row in rows:
        categories[row["bound_category"]] = (
            categories.get(row["bound_category"], 0) + 1
        )
        skew += row["skew_s"]
        barrier += row["barrier_s"]
    n = len(rows)
    return {
        "steps": n,
        "bound_category_steps": {c: categories[c] for c in sorted(categories)},
        "total_skew_s": round(skew, 6),
        "mean_barrier_s": round(barrier / n, 6) if n else 0.0,
    }


def _recommend(runs: List[Dict[str, Any]], speed_tolerance: float) -> Dict[str, Any]:
    """Cheapest config within ``speed_tolerance`` x of the fastest run."""
    # One scenario runs on one backend: every row carries a cost, or none.
    fastest = min(r["exec_time_s"] for r in runs)
    eligible = [r for r in runs if r["exec_time_s"] <= speed_tolerance * fastest]
    best = min(
        eligible,
        key=lambda r: (
            r.get("total_cost_usd", 0.0),
            r["exec_time_s"],
            r["workers"],
            r["isp_threshold"],
        ),
    )
    out = {
        "rule": f"cheapest config within {speed_tolerance}x of fastest",
        "workers": best["workers"],
        "isp_threshold": best["isp_threshold"],
        "exec_time_s": best["exec_time_s"],
        "fastest_exec_time_s": fastest,
    }
    if "total_cost_usd" in best:
        out["total_cost_usd"] = best["total_cost_usd"]
    return out


def _single_kpis(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    kpis: Dict[str, Any] = {
        "runs": len(runs),
        "exec_time_s": max(r["exec_time_s"] for r in runs),
        "converged": all(r["converged"] for r in runs),
        "steps_total": sum(r["steps"] for r in runs),
    }
    if any("total_cost_usd" in r for r in runs):
        kpis["total_cost_usd"] = sum(r.get("total_cost_usd", 0.0) for r in runs)
    if any(r.get("faults_injected") for r in runs):
        kpis["faults_injected"] = sum(r.get("faults_injected", 0) for r in runs)
        kpis["faults_recovered"] = sum(r.get("faults_recovered", 0) for r in runs)
    times = [r["time_to_loss_s"] for r in runs if r.get("time_to_loss_s") is not None]
    if times:
        kpis["best_time_to_loss_s"] = min(times)
    return kpis


def _single_reconciliation_summary(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    errors = [
        r["reconciliation"].get("abs_error_usd")
        for r in runs
        if "abs_error_usd" in r.get("reconciliation", {})
    ]
    if not errors:
        return {"checked_runs": 0}
    return {"checked_runs": len(errors), "max_abs_error_usd": max(errors)}


# -- platform lowering ------------------------------------------------------


def _run_platform(spec: ScenarioSpec, payload: Dict[str, Any],
                  progress: Progress) -> None:
    from ..platform.scenario import run_isolated_baseline, run_scenario

    # An unset section runs at its defaults but stays unset on the spec,
    # so it dumps as no table.
    traffic = spec.traffic or TrafficSpec()
    pool = spec.pool or PoolSpec()
    args = (spec.seed, traffic, spec.jobs or JobMixSpec(), pool, spec.pricing)
    if progress is not None:
        progress(
            f"[{spec.name}] platform: {traffic.tenants} tenants over "
            f"{traffic.horizon_s:.0f}s, pool concurrency {pool.concurrency}"
        )
    result = run_scenario(*args)
    reconciliation = reconcile_platform(result.report)
    metrics = result.metrics
    kpis: Dict[str, Any] = {
        "jobs": metrics["jobs"],
        "tenants": metrics["tenants"],
        "jobs_per_hour": metrics["jobs_per_hour"],
        "queue_wait_p50_s": metrics["queue_wait_p50_s"],
        "queue_wait_p95_s": metrics["queue_wait_p95_s"],
        "queue_wait_mean_s": metrics["queue_wait_mean_s"],
        "makespan_s": metrics["makespan_s"],
        "cloud_cost_usd": metrics["shared_cloud_cost_usd"],
        "idle_cost_usd": metrics["shared_idle_cost_usd"],
        "total_cost_usd": metrics["shared_total_cost_usd"],
        "cost_per_job_usd": metrics["cost_per_job_shared_usd"],
        "cold_activations": metrics["cold_activations"],
        "warm_activations": metrics["warm_activations"],
        "cold_fraction": metrics["cold_fraction"],
        "attributed_fraction": metrics["attributed_fraction"],
    }
    invoices = {}
    for tenant_id in sorted(result.report.invoices):
        invoice = result.report.invoices[tenant_id]
        invoices[tenant_id] = {
            "jobs": invoice.jobs,
            "activations": invoice.activations,
            "active_cost_usd": invoice.active_cost,
            "idle_cost_usd": invoice.idle_cost,
            "total_cost_usd": invoice.total_cost,
        }
    platform_block: Dict[str, Any] = {
        "trace_digest": result.digest,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
        "invoices": invoices,
    }
    if spec.report.isolated_baseline:
        if progress is not None:
            progress(f"[{spec.name}] pricing the per-job-isolation baseline...")
        baseline = run_isolated_baseline(*args)
        platform_block["isolated_baseline"] = {
            k: baseline[k] for k in sorted(baseline)
        }
        shared = kpis["total_cost_usd"]
        isolated = baseline["isolated_total_cost_usd"]
        if isolated > 0:
            kpis["isolated_savings_pct"] = 100.0 * (1.0 - shared / isolated)
    payload["platform"] = platform_block
    payload["kpis"] = kpis
    payload["reconciliation"] = reconciliation


# -- JSON hygiene -----------------------------------------------------------


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars (and tuples) so the payload is pure JSON."""
    if isinstance(value, dict):
        return {key: _jsonify(value[key]) for key in value}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    # numpy scalar types expose item(); anything else is a bug we want loud
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"KPI payload contains non-JSON value {value!r}")
