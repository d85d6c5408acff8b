"""Billing rollup: idle intervals, invoices, and the warm-interleave
attribution regression (every billed GB-s lands on exactly one invoice)."""

import pytest

from repro.faas.billing import ActivationRecord, FaaSBilling
from repro.platform import (
    FairShareScheduler,
    JobQueue,
    JobRecord,
    JobSpec,
    SharedPool,
    Tenant,
    build_invoices,
    container_idle_intervals,
)
from repro.scenarios.spec import PricingSpec
from repro.sim import Environment, RandomStreams
from repro.storage import KVStore
from repro.trace import CostLedger, Tracer

TOL = 1e-9


# -- idle interval reconstruction ------------------------------------------
def test_idle_interval_closed_by_next_acquire():
    log = [
        (0.0, "provision", "f", 0, 0),
        (5.0, "release", "f", 0, 0),
        (8.0, "acquire", "f", 0, 1),
        (12.0, "release", "f", 0, 1),
    ]
    intervals = container_idle_intervals(log, keep_alive_s=100.0, horizon_s=20.0)
    assert intervals == [("f", 0, 5.0, 8.0, 0), ("f", 0, 12.0, 20.0, 1)]


def test_idle_interval_clipped_at_keep_alive_expiry():
    log = [(0.0, "provision", "f", 0, 0), (1.0, "release", "f", 0, 0)]
    intervals = container_idle_intervals(log, keep_alive_s=3.0, horizon_s=100.0)
    assert intervals == [("f", 0, 1.0, 4.0, 0)]
    # ... even when a reclaim arrives later than expiry would have.
    log.append((50.0, "reclaim", "f", 0, -1))
    intervals = container_idle_intervals(log, keep_alive_s=3.0, horizon_s=100.0)
    assert intervals == [("f", 0, 1.0, 4.0, 0)]


def test_idle_interval_closed_early_by_reclaim():
    log = [
        (0.0, "provision", "f", 0, 0),
        (1.0, "release", "f", 0, 0),
        (2.5, "reclaim", "f", 0, -1),
    ]
    intervals = container_idle_intervals(log, keep_alive_s=100.0, horizon_s=50.0)
    assert intervals == [("f", 0, 1.0, 2.5, 0)]


def test_lost_container_accrues_no_idle():
    log = [(0.0, "provision", "f", 0, 0), (4.0, "lost", "f", 0, 0)]
    assert container_idle_intervals(log, 100.0, 50.0) == []


# -- invoice identity ------------------------------------------------------
def _record(aid, start, end, pool="pool", mb=2048, cid=0):
    return ActivationRecord(
        function="trainer-2048", activation_id=aid, memory_mb=mb,
        start=start, end=end, cold=(aid == 0), ok=True, pool=pool,
        container_id=cid,
    )


def test_invoices_attribute_every_billed_gb_second():
    billing = FaaSBilling()
    billing.add(_record(0, 0.0, 2.0))
    billing.add(_record(1, 3.0, 5.5))
    billing.add(_record(2, 6.0, 7.0))
    owners = {
        ("pool", 0): ("t-a", "t-a/j0"),
        ("pool", 1): ("t-b", "t-b/j0"),
        ("pool", 2): ("t-a", "t-a/j1"),
    }
    report = build_invoices(
        billing, [], owners, pool_label="pool", keep_alive_s=60.0,
        horizon_s=10.0, pricing=PricingSpec(), tenants=["t-a", "t-b"],
    )
    checks = report.reconcile()
    assert checks["abs_error"] < TOL
    assert checks["attributed_fraction"] == pytest.approx(1.0)
    assert report.unattributed_cost == 0.0
    assert report.invoices["t-a"].jobs == 2
    assert report.invoices["t-b"].jobs == 1
    total = sum(i.active_cost for i in report.invoices.values())
    assert total == pytest.approx(billing.total_cost(), abs=TOL)


def test_unowned_activation_is_visible_residue_not_silently_spread():
    billing = FaaSBilling()
    billing.add(_record(0, 0.0, 2.0))
    billing.add(_record(1, 3.0, 5.0))  # nobody claims this one
    owners = {("pool", 0): ("t-a", "t-a/j0")}
    report = build_invoices(
        billing, [], owners, pool_label="pool", keep_alive_s=60.0,
        horizon_s=10.0, pricing=PricingSpec(), tenants=["t-a"],
    )
    checks = report.reconcile()
    assert report.unattributed_cost > 0.0
    assert checks["attributed_fraction"] < 1.0
    assert checks["abs_error"] < TOL  # the identity still holds


def test_idle_charged_to_releasing_tenant_at_discounted_rate():
    billing = FaaSBilling()
    billing.add(_record(0, 0.0, 2.0, cid=0))
    log = [
        (0.0, "provision", "trainer-2048", 0, 0),
        (2.0, "release", "trainer-2048", 0, 0),
        (6.0, "reclaim", "trainer-2048", 0, -1),
    ]
    pricing = PricingSpec(idle_rate_fraction=0.5)
    report = build_invoices(
        billing, log, {("pool", 0): ("t-a", "t-a/j0")}, pool_label="pool",
        keep_alive_s=60.0, horizon_s=10.0, pricing=pricing, tenants=["t-a"],
    )
    invoice = report.invoices["t-a"]
    # 4 idle seconds at 2 GB, half the active rate.
    assert invoice.idle_gb_s == pytest.approx(8.0)
    assert invoice.idle_cost == pytest.approx(
        8.0 * pricing.rate_per_gb_s * 0.5
    )
    assert invoice.total_cost == pytest.approx(
        invoice.active_cost + invoice.idle_cost
    )


# -- the interleave regression (satellite bugfix) --------------------------
def run_interleaved_pool(label_b="pool-b"):
    """Two pools, one consolidated bill + tracer, interleaved warm reuse."""
    env = Environment()
    streams = RandomStreams(seed=0)
    billing = FaaSBilling()
    tracer = Tracer()
    kv = KVStore(env, streams)
    pools = []
    for label in ("pool-a", label_b):
        pool = SharedPool(
            env, streams.fork(len(pools)), kv, concurrency=2,
            memory_grades_mb=(2048,), keep_alive_s=600.0,
            billing=billing, tracer=tracer, label=label,
        )
        scheduler = FairShareScheduler(
            env, pool, queue=JobQueue(), tenants=[Tenant("t-a"), Tenant("t-b")],
        )
        pools.append((pool, scheduler))

    def driver():
        for i, (pool, scheduler) in enumerate(pools):
            tenant = "t-a" if i == 0 else "t-b"
            scheduler.submit(JobRecord(
                spec=JobSpec(f"{tenant}/j{i}", tenant, 1, 3, 0.2), ordinal=i
            ))
            yield env.timeout(10.0)

    env.process(driver())
    env.run()
    return billing, tracer


def test_two_tenants_interleaved_on_one_bill_fully_attributed():
    """Distinct pool labels: the ledger joins every record to its span."""
    billing, tracer = run_interleaved_pool()
    ledger = CostLedger.from_trace(tracer, billing)
    checks = ledger.reconcile()
    assert checks["attributed_fraction"] == pytest.approx(1.0)
    assert checks["abs_error"] < TOL


def test_colliding_pool_labels_refuse_the_join_instead_of_misbilling():
    """Regression: same label on two pools used to silently decompose a
    record against the *wrong* pool's span (the misattributed time
    vanished into billing.rounding while reconcile still said 1.0).
    Now the ambiguous join is refused and the residue is visible."""
    billing, tracer = run_interleaved_pool(label_b="pool-a")
    ledger = CostLedger.from_trace(tracer, billing)
    checks = ledger.reconcile()
    assert checks["attributed_fraction"] == pytest.approx(0.0)
    assert checks["abs_error"] < TOL  # dollars still conserved


def test_warm_interleave_on_one_shared_pool_keeps_identity():
    """Two tenants alternating on the same warm container of one pool:
    100% of billed GB-s lands on tenant invoices, zero residue."""
    env = Environment()
    streams = RandomStreams(seed=3)
    kv = KVStore(env, streams)
    pool = SharedPool(env, streams, kv, concurrency=1,
                      memory_grades_mb=(2048,), keep_alive_s=600.0)
    scheduler = FairShareScheduler(
        env, pool, tenants=[Tenant("t-a"), Tenant("t-b")],
    )
    records = [
        JobRecord(spec=JobSpec(f"{t}/j{i}", t, 1, 2, 0.1), ordinal=i)
        for i, t in enumerate(["t-a", "t-b", "t-a", "t-b"])
    ]

    def driver():
        for record in records:
            scheduler.submit(record)
            yield env.timeout(5.0)

    env.process(driver())
    env.run()
    assert pool.warm_activations == 3  # container reused across tenants
    report = build_invoices(
        pool.platform.billing, pool.platform.container_log, pool.owners,
        pool_label="pool", keep_alive_s=600.0, horizon_s=env.now,
        pricing=PricingSpec(), tenants=["t-a", "t-b"],
    )
    checks = report.reconcile()
    assert checks["attributed_fraction"] == pytest.approx(1.0)
    assert checks["abs_error"] < TOL
    assert report.unattributed_cost == 0.0
