"""Unit tests: tenants, job specs, arrival generation, the job queue."""

import pytest

from repro.platform import (
    JobQueue,
    JobRecord,
    JobSpec,
    Tenant,
    generate_arrivals,
    make_tenant_fleet,
)
from repro.platform.arrivals import diurnal_rate
from repro.scenarios.spec import JobMixSpec, TrafficSpec
from repro.sim import RandomStreams


# -- tenants --------------------------------------------------------------
def test_tenant_share_weight_combines_class_and_weight():
    assert Tenant("a", priority="batch").share_weight == 1.0
    assert Tenant("a", priority="premium").share_weight == 16.0
    assert Tenant("a", priority="standard", weight=2.0).share_weight == 8.0


def test_tenant_rejects_unknown_priority_and_bad_weight():
    with pytest.raises(ValueError):
        Tenant("a", priority="platinum")
    with pytest.raises(ValueError):
        Tenant("a", weight=0.0)


def test_fleet_is_deterministic_with_mixed_classes():
    fleet = make_tenant_fleet(24)
    assert len(fleet) == 24
    assert fleet == make_tenant_fleet(24)
    classes = {t.priority for t in fleet}
    assert classes == {"batch", "standard", "premium"}
    assert len({t.tenant_id for t in fleet}) == 24


# -- job specs ------------------------------------------------------------
def test_jobspec_validate_rejects_unadmittable_width():
    spec = JobSpec("j", "t", n_workers=8, steps=10, step_cpu_s=0.1)
    with pytest.raises(ValueError, match="never be admitted"):
        spec.validate(max_concurrency=4)
    spec.validate(max_concurrency=8)  # fits exactly: fine


def test_jobspec_demand_is_total_cpu_seconds():
    spec = JobSpec("j", "t", n_workers=3, steps=10, step_cpu_s=0.5)
    assert spec.demand == pytest.approx(15.0)


def test_jobrecord_lifecycle_properties():
    record = JobRecord(spec=JobSpec("j", "t", 1, 1, 0.1), ordinal=0)
    with pytest.raises(ValueError):
        _ = record.queue_wait
    record.submitted_at = 1.0
    record.started_at = 3.5
    record.finished_at = 10.0
    assert record.queue_wait == pytest.approx(2.5)
    assert record.run_time == pytest.approx(6.5)
    assert record.done


# -- arrivals -------------------------------------------------------------
HOUR = TrafficSpec(horizon_s=3600.0)
GRADES = (1024, 2048)


def test_arrivals_deterministic_and_sorted():
    tenants = make_tenant_fleet(6)
    a = generate_arrivals(tenants, HOUR, JobMixSpec(), GRADES, RandomStreams(seed=7))
    b = generate_arrivals(tenants, HOUR, JobMixSpec(), GRADES, RandomStreams(seed=7))
    assert a == b
    times = [t for t, _ in a]
    assert times == sorted(times)
    assert all(0.0 <= t < 3600.0 for t in times)


def test_arrivals_per_tenant_streams_are_independent():
    """Adding a tenant must not perturb existing tenants' schedules."""
    small = generate_arrivals(
        make_tenant_fleet(3), HOUR, JobMixSpec(), GRADES, RandomStreams(seed=7)
    )
    large = generate_arrivals(
        make_tenant_fleet(5), HOUR, JobMixSpec(), GRADES, RandomStreams(seed=7)
    )
    small_ids = {spec.tenant_id for _, spec in small}
    kept = [(t, s) for t, s in large if s.tenant_id in small_ids]
    assert kept == small


def test_diurnal_rate_peaks_at_peak_time_and_bursts_multiply():
    profile = TrafficSpec(
        mean_rate_per_h=6.0, diurnal_amplitude=0.5, peak_time_s=1000.0,
        period_s=4000.0, burst_multiplier=5.0,
    )
    base = 6.0 / 3600.0
    assert diurnal_rate(profile, 1000.0, []) == pytest.approx(base * 1.5)
    assert diurnal_rate(profile, 3000.0, []) == pytest.approx(base * 0.5)
    in_burst = diurnal_rate(profile, 1000.0, [(900.0, 1100.0)])
    assert in_burst == pytest.approx(base * 1.5 * 5.0)


def test_arrival_job_ids_are_unique():
    arrivals = generate_arrivals(
        make_tenant_fleet(4), HOUR, JobMixSpec(), GRADES, RandomStreams(seed=1),
    )
    ids = [spec.job_id for _, spec in arrivals]
    assert len(ids) == len(set(ids))


# -- the queue ------------------------------------------------------------
def _record(tenant, n):
    return JobRecord(spec=JobSpec(f"{tenant}/j{n}", tenant, 1, 1, 0.1), ordinal=n)


def test_queue_per_tenant_fifo_and_sorted_heads():
    queue = JobQueue()
    queue.push(_record("b", 0))
    queue.push(_record("a", 1))
    queue.push(_record("b", 2))
    assert len(queue) == 3
    heads = list(queue.heads())
    assert [t for t, _ in heads] == ["a", "b"]  # sorted, not insertion order
    assert heads[1][1].ordinal == 0  # b's FIFO head is its first push
    assert queue.pop_head("b").ordinal == 0
    assert queue.pop_head("b").ordinal == 2
    assert queue.backlog("b") == 0
    assert queue.tenants_waiting() == ["a"]
