"""Per-tenant invoicing over the shared pool's consolidated FaaS bill.

The platform pays the cloud one bill (:class:`~repro.faas.FaaSBilling`
over the shared pool) and re-bills tenants two line items:

* **active** — each activation's billed GB-s, charged to the tenant that
  owns the job the activation ran for (the pool's
  ``(pool label, activation id) -> (tenant, job)`` owner map);
* **idle** — warm containers kept alive between invocations.  Idle
  intervals are reconstructed from the pool's container lifecycle log
  (``release`` opens an interval; the next ``acquire`` or ``reclaim`` of
  the same container closes it; an unclosed tail is clipped at keep-alive
  expiry or the billing horizon) and charged, at a discounted rate, to
  the tenant whose activation *released* the container — the "you kept
  it warm" attribution.  Scale-to-zero shows up here directly: reclaims
  close idle intervals early, shrinking everyone's idle line.

Accounting identity (checked by :meth:`InvoiceReport.reconcile` and the
regression tests): summed active charges plus the unattributed residue
equal ``FaaSBilling.total_cost()`` — every billed GB-second lands on
exactly one invoice line, and an activation the owner map cannot claim
is *visible* as unattributed, never silently dropped.

This module is a billing module under sim-lint: monetary comparisons use
explicit tolerances, never float equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..faas.billing import FaaSBilling

__all__ = [
    "TenantInvoice",
    "InvoiceReport",
    "container_idle_intervals",
    "build_invoices",
]


@dataclass
class TenantInvoice:
    """One tenant's line items for a billing period."""

    tenant_id: str
    jobs: int = 0
    activations: int = 0
    active_gb_s: float = 0.0
    active_cost: float = 0.0
    idle_gb_s: float = 0.0
    idle_cost: float = 0.0
    job_ids: List[str] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.active_cost + self.idle_cost


#: one warm-idle interval: (function, container_id, start, end,
#: releasing activation id)
IdleInterval = Tuple[str, int, float, float, int]


def container_idle_intervals(
    container_log: Sequence[Tuple[float, str, str, int, int]],
    keep_alive_s: float,
    horizon_s: float,
) -> List[IdleInterval]:
    """Reconstruct warm-idle intervals from the container lifecycle log.

    A ``release`` opens an interval for that container; the next
    ``acquire`` or ``reclaim`` of the same container closes it (bounded
    by keep-alive expiry — the platform evicts lazily, billing does
    not).  Unclosed intervals are clipped at ``min(start + keep_alive,
    horizon)``.
    """
    intervals: List[IdleInterval] = []
    open_idle: Dict[Tuple[str, int], Tuple[float, int]] = {}
    for time, event, function, container_id, activation_id in container_log:
        key = (function, container_id)
        if event == "release":
            open_idle[key] = (time, activation_id)
        elif event in ("acquire", "reclaim"):
            opened = open_idle.pop(key, None)
            if opened is not None:
                start, releaser = opened
                end = min(time, start + keep_alive_s)
                if end > start:
                    intervals.append((function, container_id, start, end, releaser))
        # "provision" and "lost" neither open nor close idle time.
    for key in sorted(open_idle):
        function, container_id = key
        start, releaser = open_idle[key]
        end = min(start + keep_alive_s, horizon_s)
        if end > start:
            intervals.append((function, container_id, start, end, releaser))
    intervals.sort()
    return intervals


@dataclass
class InvoiceReport:
    """All tenant invoices plus the platform-level residue."""

    invoices: Dict[str, TenantInvoice]
    #: billed cost of activations the owner map could not claim —
    #: must be (near) zero on a healthy platform, and *visible* here
    #: rather than silently spread over tenants when it is not
    unattributed_cost: float
    unattributed_gb_s: float
    billing_total_cost: float
    idle_cost_total: float

    def reconcile(self) -> Dict[str, float]:
        """Check that active charges + residue reproduce the cloud bill."""
        active = 0.0
        active_gb_s = 0.0
        for tenant_id in sorted(self.invoices):
            invoice = self.invoices[tenant_id]
            active += invoice.active_cost
            active_gb_s += invoice.active_gb_s
        total_gb_s = active_gb_s + self.unattributed_gb_s
        fraction = active_gb_s / total_gb_s if total_gb_s > 0 else 1.0
        return {
            "billing_total_cost": self.billing_total_cost,
            "invoiced_active_cost": active,
            "unattributed_cost": self.unattributed_cost,
            "abs_error": abs(
                self.billing_total_cost - (active + self.unattributed_cost)
            ),
            "attributed_fraction": fraction,
            "idle_cost_total": self.idle_cost_total,
        }


def build_invoices(
    billing: FaaSBilling,
    container_log: Sequence[Tuple[float, str, str, int, int]],
    owners: Dict[Tuple[str, int], Tuple[str, str]],
    pool_label: str,
    keep_alive_s: float,
    horizon_s: float,
    pricing,
    tenants: Sequence[str] = (),
) -> InvoiceReport:
    """Split the pool's consolidated bill into per-tenant invoices.

    ``pricing`` is the scenario's ``[pricing]`` section: tenants are
    re-billed at ``rate_per_gb_s``, and idle warm capacity at
    ``idle_rate_fraction`` of it (the provider's keep-alive cost passed
    through, discounted).
    """
    rate = pricing.rate_per_gb_s
    invoices: Dict[str, TenantInvoice] = {
        tenant_id: TenantInvoice(tenant_id) for tenant_id in sorted(tenants)
    }

    def invoice_for(tenant_id: str) -> TenantInvoice:
        if tenant_id not in invoices:
            invoices[tenant_id] = TenantInvoice(tenant_id)
        return invoices[tenant_id]

    # -- active line: one entry per billed activation --------------------
    unattributed_cost = 0.0
    unattributed_gb_s = 0.0
    for record in billing.records:
        owner = owners.get((getattr(record, "pool", "faas"), record.activation_id))
        if owner is None:
            unattributed_cost += record.cost(rate)
            unattributed_gb_s += record.gb_seconds
            continue
        tenant_id, job_id = owner
        invoice = invoice_for(tenant_id)
        invoice.activations += 1
        invoice.active_gb_s += record.gb_seconds
        invoice.active_cost += record.cost(rate)
        if job_id not in invoice.job_ids:
            invoice.job_ids.append(job_id)
            invoice.jobs += 1

    # -- idle line: warm keep-alive intervals -----------------------------
    memory_by_function: Dict[str, int] = {}
    for record in billing.records:
        memory_by_function.setdefault(record.function, record.memory_mb)
    idle_cost_total = 0.0
    for function, _cid, start, end, releaser in container_idle_intervals(
        container_log, keep_alive_s, horizon_s
    ):
        # The container log is the pool's own, so the releasing
        # activation id resolves through the pool's owner-map namespace.
        owner = owners.get((pool_label, releaser))
        if owner is None:
            continue  # released by an unowned activation; the active
            # residue already makes its cost visible
        tenant_id = owner[0]
        gb = memory_by_function.get(function, 0) / 1024.0
        gb_s = gb * (end - start)
        cost = gb_s * rate * pricing.idle_rate_fraction
        invoice = invoice_for(tenant_id)
        invoice.idle_gb_s += gb_s
        invoice.idle_cost += cost
        idle_cost_total += cost

    return InvoiceReport(
        invoices=invoices,
        unattributed_cost=unattributed_cost,
        unattributed_gb_s=unattributed_gb_s,
        billing_total_cost=billing.total_cost(),
        idle_cost_total=idle_cost_total,
    )
