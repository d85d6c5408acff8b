"""Multi-tenant training platform over the simulated FaaS substrate.

Many tenants submit training jobs into an event-driven admission queue;
a weighted fair-share scheduler packs them onto one shared FaaS pool
(warm containers reused *across* tenants, scale-to-zero when idle); the
consolidated cloud bill is split back into per-tenant invoices with
idle-cost attribution.  ``repro scenario run diurnal-multi-tenant``
reports the platform's economics — jobs/hour, p95 queue wait, and cost
per job against naive per-job isolation — with a digest-stable KPI
report.

Data flow::

    arrivals (diurnal + bursts, per-tenant seed streams)
        -> JobQueue (per-tenant FIFOs)
        -> FairShareScheduler (attained-service ranking, skip aging)
        -> SharedPool (FaaSPlatform: warm reuse, scale-to-zero)
        -> FaaSBilling + container log
        -> build_invoices (per-tenant active + idle line items)
"""

from .arrivals import generate_arrivals
from .billing import (
    InvoiceReport,
    TenantInvoice,
    build_invoices,
    container_idle_intervals,
)
from .jobs import JobRecord, JobSpec, training_job_machine
from .pool import PoolRuntime, SharedPool
from .queue import JobQueue
from .scenario import (
    ScenarioResult,
    percentile,
    run_isolated_baseline,
    run_scenario,
)
from .scheduler import FairShareScheduler
from .tenants import PRIORITY_CLASSES, Tenant, make_tenant_fleet

__all__ = [
    "generate_arrivals",
    "InvoiceReport",
    "TenantInvoice",
    "build_invoices",
    "container_idle_intervals",
    "JobSpec",
    "JobRecord",
    "training_job_machine",
    "PoolRuntime",
    "SharedPool",
    "JobQueue",
    "FairShareScheduler",
    "ScenarioResult",
    "percentile",
    "run_scenario",
    "run_isolated_baseline",
    "Tenant",
    "PRIORITY_CLASSES",
    "make_tenant_fleet",
]
