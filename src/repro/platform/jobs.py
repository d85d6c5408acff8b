"""Platform job specifications, lifecycle records, and the job machine.

A platform job is a data-parallel training run: ``n_workers`` function
activations, each stepping through ``steps`` mini-batch updates of
``step_cpu_s`` CPU-seconds and periodically publishing a model update to
the shared KV store.  The worker logic is a *backend-neutral machine* in
the PR-5 style — a plain generator yielding service-call tokens through
:class:`repro.exec.protocols.ExecutionContext` — so the shared pool
drives it under the common DES exactly like the MLLess training roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..exec.protocols import ExecutionContext, Machine

__all__ = ["JobSpec", "JobRecord", "training_job_machine"]


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one submitted training job."""

    job_id: str
    tenant_id: str
    n_workers: int
    steps: int
    step_cpu_s: float
    memory_mb: int = 2048
    #: publish a model update to the KV store every this many steps
    #: (0 disables update traffic)
    sync_every: int = 5

    def validate(self, max_concurrency: int) -> None:
        if self.n_workers < 1:
            raise ValueError(f"{self.job_id}: n_workers must be >= 1")
        if self.n_workers > max_concurrency:
            raise ValueError(
                f"{self.job_id}: needs {self.n_workers} slots but the pool "
                f"only has {max_concurrency} — the job could never be admitted"
            )
        if self.steps < 1:
            raise ValueError(f"{self.job_id}: steps must be >= 1")
        if self.step_cpu_s <= 0:
            raise ValueError(f"{self.job_id}: step_cpu_s must be positive")
        if self.sync_every < 0:
            raise ValueError(f"{self.job_id}: sync_every must be >= 0")

    @property
    def demand(self) -> float:
        """Estimated service demand (CPU-seconds across all workers).

        The fair-share scheduler charges this against the tenant's share
        at dispatch time; using the a-priori estimate (not the measured
        runtime) keeps the schedule independent of execution noise.
        """
        return self.n_workers * self.steps * self.step_cpu_s


@dataclass
class JobRecord:
    """Mutable lifecycle of one job as the platform processes it."""

    spec: JobSpec
    #: global submission ordinal (stable across runs; used in digests)
    ordinal: int
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    ok: bool = False
    #: times the scheduler ranked this job first-fit-eligible but could
    #: not place it; at ``max_skips`` the job seals the backfill queue
    skips: int = 0
    #: activation ids of the job's worker activations, in worker order
    activation_ids: List[int] = field(default_factory=list)

    @property
    def queue_wait(self) -> float:
        if self.submitted_at is None or self.started_at is None:
            raise ValueError(f"{self.spec.job_id} has not started")
        return self.started_at - self.submitted_at

    @property
    def run_time(self) -> float:
        if self.started_at is None or self.finished_at is None:
            raise ValueError(f"{self.spec.job_id} has not finished")
        return self.finished_at - self.started_at

    @property
    def done(self) -> bool:
        return self.finished_at is not None


def training_job_machine(ctx: ExecutionContext, payload: Dict[str, Any]) -> Machine:
    """One worker shard of a platform training job (backend-neutral).

    ``payload`` carries the shard assignment: ``job_id``, ``tenant_id``,
    ``worker`` (shard index), ``steps``, ``step_cpu_s``, ``sync_every``.
    One compute charge covers a sync interval, ending at the float time
    per-step charges would; every ``sync_every``-th step publishes an
    update to the KV store (shared data-plane traffic, so concurrent
    jobs contend on the same simulated service).  The worker's invoke
    span is annotated with the job/tenant identity, which is what lets
    the tenant ledger slice the platform bill per customer.
    """
    job_id = payload["job_id"]
    tenant_id = payload["tenant_id"]
    worker = payload["worker"]
    steps = payload["steps"]
    step_cpu_s = payload["step_cpu_s"]
    sync_every = payload.get("sync_every", 0)
    ctx.annotate(job=job_id, tenant=tenant_id, worker=worker)
    services = ctx.services
    prefix = f"platform/{job_id}/w{worker}/"
    for done in range(0, steps, sync_every or steps):
        yield services.compute(step_cpu_s, steps=min(sync_every or steps, steps - done))
        if sync_every and done + sync_every <= steps:
            yield services.kv_set(f"{prefix}u{done + sync_every}", float(done + sync_every))
    # Final model shard publish: the job's result artifact.
    yield services.kv_set(f"{prefix}final", float(steps))
    return {"job": job_id, "worker": worker, "steps": steps}
