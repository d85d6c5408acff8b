"""End-to-end platform scenario: metrics, invoices, and the pinned
default-config digests."""

import pytest

from repro.platform import run_isolated_baseline, run_scenario
from repro.platform.scenario import percentile
from repro.scenarios.spec import JobMixSpec, PoolSpec, PricingSpec, TrafficSpec

from ..test_hotpath_pins import sha_chunks

#: (seed, [traffic], [jobs], [pool], [pricing]) — run_scenario's arguments
SMALL = (
    5,
    TrafficSpec(tenants=5, horizon_s=1200.0, mean_rate_per_h=15.0),
    JobMixSpec(max_workers=3, min_steps=3, max_steps=10),
    PoolSpec(concurrency=5),
    PricingSpec(),
)
#: the default sections, with jobs as wide as half the pool
DEFAULT = (0, TrafficSpec(), JobMixSpec(max_workers=6), PoolSpec(), PricingSpec())


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 50.0) == 5.0
    assert percentile(values, 95.0) == 10.0
    assert percentile(values, 100.0) == 10.0
    assert percentile([3.0], 95.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_scenario_completes_all_jobs_with_sane_metrics():
    result = run_scenario(*SMALL)
    metrics = result.metrics
    assert metrics["jobs"] >= 20
    assert all(r.done for r in result.records)
    assert metrics["queue_wait_p95_s"] >= metrics["queue_wait_p50_s"] >= 0.0
    assert 0.0 < metrics["cold_fraction"] <= 1.0
    assert metrics["jobs_per_hour"] > 0.0
    # Billing identity holds inside the scenario too.
    assert metrics["attributed_fraction"] == pytest.approx(1.0)
    assert metrics["billing_abs_error_usd"] < 1e-9
    assert metrics["unattributed_cost_usd"] == 0.0


def test_scenario_invoices_cover_every_tenant_with_jobs():
    result = run_scenario(*SMALL)
    billed = {t for t, inv in result.report.invoices.items() if inv.jobs > 0}
    submitted = {r.spec.tenant_id for r in result.records}
    assert billed == submitted


def test_sharing_beats_isolation_on_cost_per_job():
    shared = run_scenario(*SMALL).metrics["cost_per_job_shared_usd"]
    isolated = run_isolated_baseline(*SMALL)["cost_per_job_isolated_usd"]
    assert shared < isolated


def _metrics_checksum(metrics, digest=""):
    """sha256 over a trace digest and every metric, floats bit-exact."""
    return sha_chunks(
        digest, *(f"{key}={float(metrics[key]).hex()}" for key in sorted(metrics))
    )


def test_default_scenario_meets_the_benchmark_floor():
    """The default scenario must exercise platform scale: >= 200 jobs from
    >= 20 tenants.  Its trace digest and every shared / isolated metric
    are pinned bit-exactly, so scheduling, billing or RNG drift shows up
    here and not only as a changed headline number."""
    assert TrafficSpec().tenants >= 20
    result = run_scenario(*DEFAULT)
    assert result.metrics["jobs"] >= 200
    assert result.metrics["queue_wait_p95_s"] > 0.0
    assert result.digest == (
        "e803f0aadeb6db5607005deb63f8c9630fad65be38c3465f713af1b2b133bc46"
    )
    assert _metrics_checksum(result.metrics, result.digest) == (
        "70ec4d23bea4061341e6e311fdef561274fcef06fb917249a220c9d039c7273e"
    )
    assert _metrics_checksum(run_isolated_baseline(*DEFAULT)) == (
        "c3a9a945df05b28ffdfe319e505d520456f2f1eec9e08fcaf1b98bdafd06ff78"
    )
