"""Deterministic arrival traffic: diurnal rate curves with bursts.

Each tenant submits jobs as an inhomogeneous Poisson process whose rate
follows a diurnal curve (one compressed "day" over the scenario horizon)
plus short random burst windows (a retraining campaign, a backfill).
Arrivals are sampled by thinning against the peak rate, drawing *only*
from named seed streams (``platform.arrivals.<tenant>`` for timing,
``platform.jobs.<tenant>`` for job sizing) so adding a tenant, or
resizing one tenant's jobs, never perturbs another tenant's schedule.

``traffic`` and ``jobs`` below are the scenario's validated ``[traffic]``
and ``[jobs]`` sections, read by attribute.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..sim import RandomStreams
from .jobs import JobSpec
from .tenants import Tenant

__all__ = ["Submission", "diurnal_rate", "generate_arrivals"]


#: one scheduled submission: (sim time, job spec)
Submission = Tuple[float, JobSpec]


def diurnal_rate(traffic, t: float, bursts: List[Tuple[float, float]]) -> float:
    """Submissions/second at sim time ``t`` given active burst windows."""
    cycle = 2.0 * math.pi * (t - traffic.peak_time_s) / traffic.period_s
    rate = (traffic.mean_rate_per_h / 3600.0) * (
        1.0 + traffic.diurnal_amplitude * math.cos(cycle)
    )
    for start, end in bursts:
        if start <= t < end:
            rate *= traffic.burst_multiplier
    return rate


def _tenant_bursts(traffic, rng) -> List[Tuple[float, float]]:
    """Deterministic burst windows (homogeneous Poisson starts)."""
    bursts: List[Tuple[float, float]] = []
    rate_per_s = traffic.bursts_per_h / 3600.0
    if rate_per_s <= 0:
        return bursts
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= traffic.horizon_s:
            return bursts
        bursts.append((t, t + traffic.burst_len_s))


def _tenant_arrivals(
    tenant: Tenant, traffic, jobs, memory_grades_mb, streams: RandomStreams
) -> List[Submission]:
    """Thinned inhomogeneous Poisson arrivals + sampled job sizes."""
    arrival_rng = streams.stream(f"platform.arrivals.{tenant.tenant_id}")
    size_rng = streams.stream(f"platform.jobs.{tenant.tenant_id}")
    bursts = _tenant_bursts(traffic, arrival_rng)
    peak_rate = (
        (traffic.mean_rate_per_h / 3600.0)
        * (1.0 + traffic.diurnal_amplitude)
        * max(traffic.burst_multiplier, 1.0)
    )
    out: List[Submission] = []
    t = 0.0
    seq = 0
    while True:
        t += float(arrival_rng.exponential(1.0 / peak_rate))
        if t >= traffic.horizon_s:
            return out
        # Thinning: accept with probability rate(t)/peak_rate.  The draw
        # happens for every candidate, so acceptance of one arrival never
        # shifts the RNG stream consumed by later candidates.
        u = float(arrival_rng.random())
        if u * peak_rate > diurnal_rate(traffic, t, bursts):
            continue
        n_workers = int(size_rng.integers(jobs.min_workers, jobs.max_workers + 1))
        steps = int(size_rng.integers(jobs.min_steps, jobs.max_steps + 1))
        step_cpu = float(
            size_rng.lognormal(
                math.log(jobs.step_cpu_median_s), jobs.step_cpu_sigma
            )
        )
        grade = memory_grades_mb[int(size_rng.integers(0, len(memory_grades_mb)))]
        out.append(
            (
                t,
                JobSpec(
                    job_id=f"{tenant.tenant_id}/job-{seq:04d}",
                    tenant_id=tenant.tenant_id,
                    n_workers=n_workers,
                    steps=steps,
                    step_cpu_s=step_cpu,
                    memory_mb=grade,
                    sync_every=jobs.sync_every,
                ),
            )
        )
        seq += 1


def generate_arrivals(
    tenants: List[Tenant], traffic, jobs, memory_grades_mb, streams: RandomStreams
) -> List[Submission]:
    """The submission schedule up to ``traffic.horizon_s``, sorted by (time, job id).

    Each job's memory grade is drawn from ``memory_grades_mb`` (the pool's).

    The tie-break on job id makes the order total, so equal-timestamp
    submissions from different tenants enqueue identically in every run.
    """
    merged: List[Submission] = []
    for tenant in tenants:
        merged.extend(
            _tenant_arrivals(tenant, traffic, jobs, memory_grades_mb, streams)
        )
    merged.sort(key=lambda sub: (sub[0], sub[1].job_id))
    return merged
