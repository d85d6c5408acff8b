"""End-to-end platform scenarios: shared pool vs per-job isolation.

:func:`run_scenario` wires the whole tentpole together — tenant fleet,
diurnal arrivals, admission queue, fair-share scheduler, shared pool
with scale-to-zero, per-tenant invoices — in one fresh simulation
world, and measures the platform-scale metrics: jobs/hour, queue-wait
percentiles, and cost per job.

:func:`run_isolated_baseline` prices the counterfactual: every job on
its own single-tenant platform (fresh environment, forked RNG registry
per job), paying its own cold starts and its own full keep-alive idle
tail, with nobody to share warm containers with.  The shared/isolated
cost ratio is the platform's economic headline.

Both take a seed and the scenario's validated ``[traffic]``, ``[jobs]``,
``[pool]`` and ``[pricing]`` sections, read by attribute — those sections
are the platform's only configuration.

Determinism: the scenario records scheduling decisions, queue depths
and completions into a traced :class:`~repro.sim.Monitor`; two runs of
the same inputs must produce bit-identical ``trace_digest()`` values
(enforced by the pinned digest in ``tests/platform`` and the property
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..faas.billing import FaaSBilling
from ..sim import Environment, Monitor, RandomStreams
from ..storage import KVStore
from .arrivals import generate_arrivals
from .billing import InvoiceReport, build_invoices
from .jobs import JobRecord
from .pool import SharedPool
from .queue import JobQueue
from .scheduler import FairShareScheduler
from .tenants import make_tenant_fleet

__all__ = ["ScenarioResult", "run_scenario", "run_isolated_baseline", "percentile"]


@dataclass
class ScenarioResult:
    """Everything a benchmark or test wants from one scenario run."""

    #: bit-exact digest of the run's scheduling/monitor trace
    digest: str
    metrics: Dict[str, float]
    records: List[JobRecord] = field(default_factory=list)
    report: InvoiceReport = None
    monitor: Monitor = None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = int(-(-q * len(ordered) // 100))  # ceil without math import
    return ordered[rank - 1]


def _make_pool(
    env, streams, pool, pricing, scale_to_zero_after_s, monitor, label
) -> SharedPool:
    """One ``[pool]``-shaped :class:`SharedPool` in ``env``.

    The platform pays the cloud at the scenario's configured rate;
    invoices re-bill at the same rate, so reconcile() stays exact
    whatever pricing table the scenario declares.
    """
    return SharedPool(
        env,
        streams,
        KVStore(env, streams),
        concurrency=pool.concurrency,
        memory_grades_mb=pool.memory_grades_mb,
        keep_alive_s=pool.keep_alive_s,
        scale_to_zero_after_s=scale_to_zero_after_s,
        billing=FaaSBilling(rate_per_gb_s=pricing.rate_per_gb_s),
        monitor=monitor,
        label=label,
    )


def _invoice(shared: SharedPool, pricing, horizon_s, tenants) -> InvoiceReport:
    """``shared``'s consolidated bill and idle time up to ``horizon_s``, per tenant."""
    platform = shared.platform
    return build_invoices(
        platform.billing, platform.container_log, shared.owners, platform.label,
        shared.keep_alive_s, horizon_s, pricing, tenants,
    )


def run_scenario(seed, traffic, jobs, pool, pricing) -> ScenarioResult:
    """Run the shared multi-tenant platform scenario to completion."""
    env = Environment()
    streams = RandomStreams(seed=seed)
    monitor = Monitor(trace=True)
    tenants = make_tenant_fleet(traffic.tenants)
    arrivals = generate_arrivals(
        tenants, traffic, jobs, pool.memory_grades_mb, streams
    )
    records = [
        JobRecord(spec=spec, ordinal=i) for i, (_, spec) in enumerate(arrivals)
    ]
    shared = _make_pool(
        env, streams, pool, pricing, pool.scale_to_zero_after_s, monitor, "pool"
    )
    scheduler = FairShareScheduler(
        env,
        shared,
        queue=JobQueue(),
        tenants=tenants,
        max_skips=pool.max_skips,
        monitor=monitor,
    )

    def submitter():
        for (at, _), record in zip(arrivals, records):
            if at > env.now:
                yield env.timeout(at - env.now)
            scheduler.submit(record)

    env.process(submitter(), name="platform.submitter")
    env.run()

    completed = scheduler.completed
    if len(completed) != len(records):
        raise RuntimeError(
            f"platform run lost jobs: {len(completed)}/{len(records)} completed"
        )
    makespan = max(r.finished_at for r in completed)
    waits = [r.queue_wait for r in completed]
    report = _invoice(shared, pricing, env.now, [t.tenant_id for t in tenants])
    reconciled = report.reconcile()
    shared_cloud = report.billing_total_cost
    shared_total = shared_cloud + report.idle_cost_total
    n_jobs = len(completed)
    total_activations = shared.cold_activations + shared.warm_activations
    metrics: Dict[str, float] = {
        "jobs": float(n_jobs),
        "tenants": float(traffic.tenants),
        "jobs_per_hour": n_jobs / (makespan / 3600.0),
        "queue_wait_p50_s": percentile(waits, 50.0),
        "queue_wait_p95_s": percentile(waits, 95.0),
        "queue_wait_mean_s": sum(waits) / n_jobs,
        "makespan_s": makespan,
        "shared_cloud_cost_usd": shared_cloud,
        "shared_idle_cost_usd": report.idle_cost_total,
        "shared_total_cost_usd": shared_total,
        "cost_per_job_shared_usd": shared_total / n_jobs,
        "cold_activations": float(shared.cold_activations),
        "warm_activations": float(shared.warm_activations),
        "cold_fraction": (
            shared.cold_activations / total_activations
            if total_activations > 0
            else 0.0
        ),
        "scheduler_wakeups": float(scheduler.wakeups),
        "scheduler_dispatches": float(scheduler.dispatches),
        "unattributed_cost_usd": report.unattributed_cost,
        "attributed_fraction": reconciled["attributed_fraction"],
        "billing_abs_error_usd": reconciled["abs_error"],
    }
    return ScenarioResult(
        digest=monitor.trace_digest(),
        metrics=metrics,
        records=records,
        report=report,
        monitor=monitor,
    )


def run_isolated_baseline(seed, traffic, jobs, pool, pricing) -> Dict[str, float]:
    """Price the same jobs with per-job isolation (the naive baseline).

    Each job gets a brand-new single-tenant world: its own platform (same
    concurrency cap and keep-alive), its own cold starts, and a full
    keep-alive idle tail after its last activation releases — there is no
    later job to hand the warm containers to, and no platform operator
    running scale-to-zero on its behalf.  RNG registries are forked per
    job ordinal so the baseline is deterministic and order-independent.
    """
    streams = RandomStreams(seed=seed)
    arrivals = generate_arrivals(
        make_tenant_fleet(traffic.tenants), traffic, jobs,
        pool.memory_grades_mb, streams,
    )
    total_cloud = 0.0
    total_idle = 0.0
    total_cold = 0
    for ordinal, (_, spec) in enumerate(arrivals):
        env = Environment()
        shared = _make_pool(
            env, streams.fork(ordinal), pool, pricing, 0.0, None, "isolated"
        )
        record = JobRecord(spec=spec, ordinal=ordinal)
        record.submitted_at = env.now
        shared.launch(record, lambda _rec: None)
        env.run()
        # Full keep-alive tails: the horizon extends past the last
        # release so nothing gets clipped by "the run ended".
        report = _invoice(
            shared, pricing, env.now + pool.keep_alive_s, [spec.tenant_id]
        )
        total_cloud += report.billing_total_cost
        total_idle += report.idle_cost_total
        total_cold += shared.cold_activations
    n_jobs = len(arrivals)
    total = total_cloud + total_idle
    return {
        "jobs": float(n_jobs),
        "isolated_cloud_cost_usd": total_cloud,
        "isolated_idle_cost_usd": total_idle,
        "isolated_total_cost_usd": total,
        "cost_per_job_isolated_usd": total / n_jobs if n_jobs else 0.0,
        "isolated_cold_activations": float(total_cold),
    }
