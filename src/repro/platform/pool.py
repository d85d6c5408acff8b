"""The shared FaaS pool all tenants' jobs execute on.

One :class:`~repro.faas.FaaSPlatform` instance, one concurrency cap,
one warm-container pool per memory grade — shared across every tenant.
That sharing is the whole economic argument of the platform: a job
often lands on containers a *different* tenant's job paid to boot, so
the fleet amortises cold starts and keep-alive idle that per-job
isolation would each pay alone.

The pool also models **scale-to-zero**: when no activation is running
and nothing new arrives for ``scale_to_zero_after_s``, every idle warm
container is reclaimed (:meth:`~repro.faas.FaaSPlatform.reclaim_warm`),
ending its billable idle tail early — and honestly re-charging the next
burst's cold starts inside the simulation.

Admission is strict: the pool wraps the platform with
``queue_when_full=False``, so a scheduler bug that overshoots the
concurrency cap raises immediately instead of silently queueing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..faas import ColdStartModel, FaaSLimits, FaaSPlatform, FunctionSpec
from ..faas.billing import FaaSBilling
from ..sim import Environment, Monitor, RandomStreams
from ..storage import KVStore
from .jobs import JobRecord, training_job_machine

__all__ = ["PoolRuntime", "SharedPool"]


class PoolRuntime:
    """Service handles a platform job machine reaches through ``ctx.services``.

    Platform jobs use the KV store only; the other data-plane handles
    are declared absent rather than left undefined.
    """

    __slots__ = ("kv",)
    cos = mq = exchange = None

    def __init__(self, kv: KVStore):
        self.kv = kv


class SharedPool:
    """A multi-tenant FaaS pool running platform training jobs."""

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        kv: KVStore,
        concurrency: int = 16,
        memory_grades_mb: Sequence[int] = (1024, 2048),
        keep_alive_s: float = 180.0,
        scale_to_zero_after_s: float = 0.0,
        billing: Optional[FaaSBilling] = None,
        tracer=None,
        monitor: Optional[Monitor] = None,
        label: str = "pool",
    ):
        self.env = env
        self.monitor = monitor
        self.keep_alive_s = keep_alive_s
        self.scale_to_zero_after_s = scale_to_zero_after_s
        self.runtime = PoolRuntime(kv)
        limits = FaaSLimits(max_concurrency=concurrency)
        cold_start = ColdStartModel(keep_alive=keep_alive_s)
        self.platform = FaaSPlatform(
            env,
            streams,
            limits=limits,
            cold_start=cold_start,
            billing=billing,
            queue_when_full=False,
            tracer=tracer,
            label=label,
        )
        for grade in sorted(set(memory_grades_mb)):
            self.platform.register(
                FunctionSpec(
                    name=self.function_name(grade),
                    handler=self._make_handler(),
                    memory_mb=grade,
                )
            )
        #: ``(pool label, activation id) -> (tenant id, job id)`` — how
        #: per-tenant billing claims each activation on the shared bill
        self.owners: Dict[Tuple[str, int], Tuple[str, str]] = {}
        self.jobs_launched = 0
        self.cold_activations = 0
        self.warm_activations = 0
        self._last_activity = env.now
        self._idle_timer_running = False

    def _make_handler(self):
        runtime = self.runtime

        def handler(ctx, payload):
            from ..exec.sim import SimExecutionContext, drive

            return drive(
                training_job_machine(SimExecutionContext(ctx, runtime), payload)
            )

        handler.__name__ = "platform_trainer_handler"
        return handler

    @staticmethod
    def function_name(memory_mb: int) -> str:
        return f"trainer-{memory_mb}"

    # -- capacity --------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.platform.limits.max_concurrency

    @property
    def free_slots(self) -> int:
        return self.capacity - self.platform.running_count

    # -- launching -------------------------------------------------------
    def launch(
        self, record: JobRecord, on_done: Callable[[JobRecord], None]
    ) -> None:
        """Start all of a job's worker activations (must fit right now)."""
        spec = record.spec
        if spec.n_workers > self.free_slots:
            raise RuntimeError(
                f"{spec.job_id}: needs {spec.n_workers} slots, "
                f"only {self.free_slots} free — scheduler admission bug"
            )
        record.started_at = self.env.now
        self._last_activity = self.env.now
        self.jobs_launched += 1
        function = self.function_name(spec.memory_mb)
        activations = []
        for worker in range(spec.n_workers):
            activation = self.platform.invoke(
                function,
                {
                    "job_id": spec.job_id,
                    "tenant_id": spec.tenant_id,
                    "worker": worker,
                    "steps": spec.steps,
                    "step_cpu_s": spec.step_cpu_s,
                    "sync_every": spec.sync_every,
                },
            )
            record.activation_ids.append(activation.activation_id)
            self.owners[(self.platform.label, activation.activation_id)] = (
                spec.tenant_id,
                spec.job_id,
            )
            activations.append(activation)
        if self.monitor is not None:
            self.monitor.record(
                "platform.running",
                self.env.now,
                float(self.platform.running_count),
            )
        self.env.process(
            self._join(record, activations, on_done),
            name=f"platform.join.{spec.job_id}",
        )

    def _join(self, record, activations, on_done):
        """Wait for every worker of one job; then report completion."""
        ok = True
        for activation in activations:
            try:
                yield activation.process
            except Exception:
                # The worker failed (duration cap, injected crash, ...);
                # the job fails but later workers are still joined so the
                # job never "completes" while its activations run on.
                ok = False
        record.finished_at = self.env.now
        record.ok = ok
        for activation in activations:
            if activation.cold:
                self.cold_activations += 1
            else:
                self.warm_activations += 1
        self._last_activity = self.env.now
        if self.monitor is not None:
            self.monitor.record(
                "platform.running",
                self.env.now,
                float(self.platform.running_count),
            )
        on_done(record)
        self._maybe_start_idle_timer()

    # -- scale-to-zero ---------------------------------------------------
    def _maybe_start_idle_timer(self) -> None:
        if self.scale_to_zero_after_s <= 0 or self._idle_timer_running:
            return
        if self.platform.running_count > 0 or self.platform.warm_count() == 0:
            return
        self._idle_timer_running = True
        self.env.process(self._idle_timer(), name="platform.scale_to_zero")

    def _idle_timer(self):
        """Reclaim all warm containers once the pool has sat idle long enough.

        The timer sleeps to ``last activity + S`` and re-checks; new
        launches push the target forward, and a busy pool cancels the
        timer (a fresh one starts at the next idle moment).  This keeps
        the control plane event-driven — no periodic polling tick.
        """
        try:
            while True:
                target = self._last_activity + self.scale_to_zero_after_s
                if self.env.now < target:
                    yield self.env.timeout(target - self.env.now)
                    continue
                if self.platform.running_count > 0:
                    return  # busy again; a new timer starts at next idle
                if self.platform.warm_count() > 0:
                    reclaimed = self.platform.reclaim_warm()
                    if self.monitor is not None:
                        self.monitor.record(
                            "platform.reclaimed",
                            self.env.now,
                            float(len(reclaimed)),
                        )
                return
        finally:
            self._idle_timer_running = False

    def __repr__(self) -> str:
        return (
            f"<SharedPool cap={self.capacity} free={self.free_slots} "
            f"jobs={self.jobs_launched}>"
        )
