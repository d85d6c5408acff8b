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

Determinism: the scenario records scheduling decisions, queue depths
and completions into a traced :class:`~repro.sim.Monitor`; two runs of
the same config must produce bit-identical ``trace_digest()`` values
(enforced by the pinned digest in ``tests/platform`` and the property
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..faas.billing import FaaSBilling
from ..sim import Environment, Monitor, RandomStreams
from ..storage import KVStore
from .arrivals import JobSizeProfile, TrafficProfile, generate_arrivals
from .billing import InvoiceReport, PoolEconomics, build_invoices
from .jobs import JobRecord
from .pool import SharedPool
from .queue import JobQueue
from .scheduler import FairShareScheduler
from .tenants import make_tenant_fleet

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario",
           "run_isolated_baseline", "percentile"]


@dataclass(frozen=True)
class ScenarioConfig:
    """One platform-scale experiment, fully determined by its fields."""

    seed: int = 0
    n_tenants: int = 24
    horizon_s: float = 7200.0
    #: sized so the diurnal peak (plus bursts) queues jobs for real —
    #: p95 queue wait is a headline metric, so the default scenario must
    #: actually contend for the pool
    pool_concurrency: int = 12
    memory_grades_mb: tuple = (1024, 2048)
    keep_alive_s: float = 180.0
    scale_to_zero_after_s: float = 60.0
    max_skips: int = 8
    traffic: TrafficProfile = TrafficProfile(mean_rate_per_h=9.0)
    sizes: JobSizeProfile = JobSizeProfile(max_workers=6)
    economics: PoolEconomics = PoolEconomics()


@dataclass
class ScenarioResult:
    """Everything a benchmark or test wants from one scenario run."""

    config: ScenarioConfig
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


def run_scenario(config: ScenarioConfig = ScenarioConfig()) -> ScenarioResult:
    """Run the shared multi-tenant platform scenario to completion."""
    env = Environment()
    streams = RandomStreams(seed=config.seed)
    monitor = Monitor(trace=True)
    tenants = make_tenant_fleet(config.n_tenants)
    arrivals = generate_arrivals(
        tenants, config.traffic, config.sizes, streams, config.horizon_s
    )
    records = [
        JobRecord(spec=spec, ordinal=i) for i, (_, spec) in enumerate(arrivals)
    ]
    kv = KVStore(env, streams)
    pool = SharedPool(
        env,
        streams,
        kv,
        concurrency=config.pool_concurrency,
        memory_grades_mb=config.memory_grades_mb,
        keep_alive_s=config.keep_alive_s,
        scale_to_zero_after_s=config.scale_to_zero_after_s,
        # The platform pays the cloud at the scenario's configured rate;
        # invoices re-bill at the same rate, so reconcile() stays exact
        # whatever pricing table the scenario declares.
        billing=FaaSBilling(rate_per_gb_s=config.economics.rate_per_gb_s),
        monitor=monitor,
        label="pool",
    )
    scheduler = FairShareScheduler(
        env,
        pool,
        queue=JobQueue(),
        tenants=tenants,
        max_skips=config.max_skips,
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
    report = build_invoices(
        pool.platform.billing,
        pool.platform.container_log,
        pool.owners,
        pool_label=pool.platform.label,
        keep_alive_s=config.keep_alive_s,
        horizon_s=env.now,
        economics=config.economics,
        tenants=[t.tenant_id for t in tenants],
    )
    reconciled = report.reconcile()
    shared_cloud = report.billing_total_cost
    shared_total = shared_cloud + report.idle_cost_total
    n_jobs = len(completed)
    total_activations = pool.cold_activations + pool.warm_activations
    metrics: Dict[str, float] = {
        "jobs": float(n_jobs),
        "tenants": float(config.n_tenants),
        "jobs_per_hour": n_jobs / (makespan / 3600.0),
        "queue_wait_p50_s": percentile(waits, 50.0),
        "queue_wait_p95_s": percentile(waits, 95.0),
        "queue_wait_mean_s": sum(waits) / n_jobs,
        "makespan_s": makespan,
        "shared_cloud_cost_usd": shared_cloud,
        "shared_idle_cost_usd": report.idle_cost_total,
        "shared_total_cost_usd": shared_total,
        "cost_per_job_shared_usd": shared_total / n_jobs,
        "cold_activations": float(pool.cold_activations),
        "warm_activations": float(pool.warm_activations),
        "cold_fraction": (
            pool.cold_activations / total_activations
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
        config=config,
        digest=monitor.trace_digest(),
        metrics=metrics,
        records=records,
        report=report,
        monitor=monitor,
    )


def run_isolated_baseline(config: ScenarioConfig = ScenarioConfig()) -> Dict[str, float]:
    """Price the same jobs with per-job isolation (the naive baseline).

    Each job gets a brand-new single-tenant world: its own platform (same
    concurrency cap and keep-alive), its own cold starts, and a full
    keep-alive idle tail after its last activation releases — there is no
    later job to hand the warm containers to, and no platform operator
    running scale-to-zero on its behalf.  RNG registries are forked per
    job ordinal so the baseline is deterministic and order-independent.
    """
    streams = RandomStreams(seed=config.seed)
    tenants = make_tenant_fleet(config.n_tenants)
    arrivals = generate_arrivals(
        tenants, config.traffic, config.sizes, streams, config.horizon_s
    )
    total_cloud = 0.0
    total_idle = 0.0
    total_cold = 0
    for ordinal, (_, spec) in enumerate(arrivals):
        env = Environment()
        job_streams = streams.fork(ordinal)
        kv = KVStore(env, job_streams)
        pool = SharedPool(
            env,
            job_streams,
            kv,
            concurrency=config.pool_concurrency,
            memory_grades_mb=config.memory_grades_mb,
            keep_alive_s=config.keep_alive_s,
            scale_to_zero_after_s=0.0,
            billing=FaaSBilling(rate_per_gb_s=config.economics.rate_per_gb_s),
            label="isolated",
        )
        record = JobRecord(spec=spec, ordinal=ordinal)
        record.submitted_at = env.now
        pool.launch(record, lambda _rec: None)
        env.run()
        report = build_invoices(
            pool.platform.billing,
            pool.platform.container_log,
            pool.owners,
            pool_label="isolated",
            keep_alive_s=config.keep_alive_s,
            # Full keep-alive tails: the horizon extends past the last
            # release so nothing gets clipped by "the run ended".
            horizon_s=env.now + config.keep_alive_s,
            economics=config.economics,
            tenants=[spec.tenant_id],
        )
        total_cloud += report.billing_total_cost
        total_idle += report.idle_cost_total
        total_cold += pool.cold_activations
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
