"""End-to-end scenario + benchmark document + CLI round trips."""

import json

import pytest

from repro.bench.runner import compare
from repro.cli import main as repro_main
from repro.platform import ScenarioConfig, run_isolated_baseline, run_scenario
from repro.platform.arrivals import JobSizeProfile, TrafficProfile
from repro.platform.bench import metrics_checksum, run_platform_suite
from repro.platform.scenario import percentile

SMALL = ScenarioConfig(
    seed=5, n_tenants=5, horizon_s=1200.0, pool_concurrency=5,
    traffic=TrafficProfile(mean_rate_per_h=15.0),
    sizes=JobSizeProfile(max_workers=3, min_steps=3, max_steps=10),
)


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
    result = run_scenario(SMALL)
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
    result = run_scenario(SMALL)
    billed = {t for t, inv in result.report.invoices.items() if inv.jobs > 0}
    submitted = {r.spec.tenant_id for r in result.records}
    assert billed == submitted


def test_sharing_beats_isolation_on_cost_per_job():
    shared = run_scenario(SMALL).metrics["cost_per_job_shared_usd"]
    isolated = run_isolated_baseline(SMALL)["cost_per_job_isolated_usd"]
    assert shared < isolated


def test_default_scenario_meets_the_benchmark_floor():
    """The committed benchmark config must exercise platform scale:
    >= 200 jobs from >= 20 tenants (the acceptance floor)."""
    config = ScenarioConfig()
    assert config.n_tenants >= 20
    result = run_scenario(config)
    assert result.metrics["jobs"] >= 200
    assert result.metrics["queue_wait_p95_s"] > 0.0


def test_platform_suite_document_schema_and_stability():
    doc = run_platform_suite(name="t", quick=True, config=SMALL)
    assert {e["op"] for e in doc["ops"]} == {
        "platform.shared_diurnal", "platform.isolated_baseline"
    }
    assert all(e["portable_checksum"] for e in doc["ops"])
    section = doc["platform"]
    assert section["digest"]
    assert section["comparison"]["savings_pct"] > 0.0
    for key in ("jobs", "jobs_per_hour", "queue_wait_p95_s",
                "cost_per_job_shared_usd"):
        assert key in section["metrics"]
    # Self-compare must pass the CI gate mechanics unchanged.
    result = compare(doc, doc, portable_only=True)
    assert result.ok
    # The checksum is a pure function of digest+metrics: recompute it.
    shared_entry = next(
        e for e in doc["ops"] if e["op"] == "platform.shared_diurnal"
    )
    rerun = run_scenario(SMALL)
    assert shared_entry["checksum"] == metrics_checksum(
        rerun.metrics, rerun.digest
    )


def test_cli_writes_comparable_documents(tmp_path, capsys):
    assert repro_main(
        ["bench", "platform", "--quick", "--name", "a", "--out", str(tmp_path),
         "--seed", "5"]
    ) == 0
    # CLI defaults run the full-size default scenario; compare the
    # just-written file against itself for the gate round trip.
    path = tmp_path / "BENCH_a.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["name"] == "a"
    assert doc["quick"] is True
    assert repro_main(
        ["bench", "compare", str(path), str(path), "--portable-only"]
    ) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
