"""The MLLess driver (§3.1).

Runs "on the scientist's machine": stages the dataset, provisions the two
service VMs (messaging + Redis, the components of the MLLess bill besides
the functions), registers the worker and supervisor functions, launches
them, and re-invokes any activation that returns a relaunch marker after
checkpointing at the duration cap.  Produces a
:class:`~repro.core.history.RunResult`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..exec.sim import as_sim_handler
from ..faas import FaaSPlatform, FunctionSpec
from ..pricing import CostMeter
from ..sim import Environment, Interrupt
from ..trace.tracer import NO_SPAN
from .history import RunResult
from .roles import role_loops
from .runtime import JobRuntime

__all__ = ["MLLessDriver"]

#: instance types provisioned for the MLLess services (Table 2 roles)
MESSAGING_INSTANCE = "C1.4x4"
REDIS_INSTANCE = "M1.2x16"

#: FT: after the supervisor finishes, how long the driver waits for the
#: worker roles to drain before interrupting the stragglers (an abandoned
#: worker may be blocked on a barrier release that will never come)
WORKER_DRAIN_GRACE_S = 30.0


class MLLessDriver:
    """Orchestrates one MLLess training job end to end."""

    def __init__(
        self,
        env: Environment,
        platform: FaaSPlatform,
        runtime: JobRuntime,
        meter: Optional[CostMeter] = None,
    ):
        self.env = env
        self.platform = platform
        self.runtime = runtime
        self.meter = meter if meter is not None else CostMeter()
        if self.meter.faas is None:
            self.meter.faas = platform.billing
        self.result: Optional[RunResult] = None
        self._supervisor_report: Optional[Dict[str, Any]] = None

    # -- public API ---------------------------------------------------------
    def run(self) -> RunResult:
        """Run the whole job to completion (drives the event loop)."""
        done = self.env.process(self.run_process(), name="mlless-driver")
        self.env.run(until=done)
        if not done.ok:
            raise done.value
        assert self.result is not None
        return self.result

    def run_process(self) -> Generator:
        """The driver as a simulation process (for composition)."""
        runtime = self.runtime
        config = runtime.config
        tracer = runtime.tracer

        messaging_lease = self.meter.lease(MESSAGING_INSTANCE, self.env.now)
        redis_lease = self.meter.lease(REDIS_INSTANCE, self.env.now)

        self._register_functions()
        self._declare_channels()

        started_at = self.env.now
        sp_job = NO_SPAN
        if tracer.enabled:
            sp_job = tracer.begin(
                "job",
                "mlless-job",
                n_workers=config.n_workers,
                sync=config.sync,
                v=config.significance_v,
            )
        try:
            yield from self._run_roles(runtime, config, tracer, sp_job)
        finally:
            if sp_job >= 0:
                tracer.end(sp_job)
        finished_at = self.env.now

        self.meter.release(messaging_lease, finished_at)
        self.meter.release(redis_lease, finished_at)

        report = self._supervisor_report or {}
        extras = {
            "stop_reason_is_target": float(report.get("converged", False)),
        }
        if self.platform.faults is not None:
            stats = self.platform.faults.stats
            extras["faults_injected"] = float(stats.total_injected)
            extras["faults_recovered"] = float(stats.total_recovered)
            for key, value in stats.summary().items():
                extras[key] = float(value)
        self.result = RunResult(
            system="mlless",
            monitor=runtime.monitor,
            meter=self.meter,
            started_at=started_at,
            finished_at=finished_at,
            converged=bool(report.get("converged")),
            final_loss=report.get("final_loss"),
            total_steps=int(report.get("steps", 0)),
            extras=extras,
        )
        return self.result

    def _run_roles(self, runtime, config, tracer, sp_job) -> Generator:
        """Launch one process per role and wait for the job to drain."""
        worker_fn, supervisor_fn = self._function_names()
        roles = [
            self.env.process(
                self._run_role(supervisor_fn, {"runtime": runtime}),
                name="role-supervisor",
            )
        ]
        for w in range(config.n_workers):
            roles.append(
                self.env.process(
                    self._run_role(
                        worker_fn, {"runtime": runtime, "worker_id": w}
                    ),
                    name=f"role-worker-{w}",
                )
            )
        if sp_job >= 0:
            # Invoke spans opened by the role processes nest under the job.
            for role in roles:
                tracer.adopt(role, sp_job)
        if config.ft_enabled:
            # The supervisor decides when the job is over; workers that
            # were abandoned mid-job may be blocked forever on a barrier
            # release, so wait for them only up to a grace period, then
            # interrupt the stragglers (their activations are still
            # billed — FaaS charges failed activations for consumed GB-s).
            yield roles[0]
            workers_done = self.env.all_of(roles[1:])
            grace = self.env.timeout(WORKER_DRAIN_GRACE_S)
            result = yield self.env.any_of([workers_done, grace])
            if workers_done not in result:
                for role in roles[1:]:
                    if role.is_alive:
                        role.interrupt(cause="job-finished")
                yield workers_done
        else:
            yield self.env.all_of(roles)

    # -- internals -------------------------------------------------------
    def _function_names(self):
        # The names appear in billing records and spans, so they keep
        # saying which kind of job ran even where the machine is shared.
        if self.runtime.config.pipeline_stages > 1:
            # Model-parallel: one stage function per "worker" slot, the
            # ordinary barrier supervisor.
            return "mlless-pipeline-stage", "mlless-supervisor"
        if self.runtime.config.sync == "ssp":
            return "mlless-ssp-worker", "mlless-ssp-supervisor"
        return "mlless-worker", "mlless-supervisor"

    def _register_functions(self) -> None:
        config = self.runtime.config
        for name, loop_fn in zip(self._function_names(), role_loops(config)):
            if not self.platform.is_registered(name):
                self.platform.register(FunctionSpec(name, as_sim_handler(loop_fn)))

    def _declare_channels(self) -> None:
        runtime = self.runtime
        runtime.mq.declare(runtime.supervisor_queue)
        for w in range(runtime.config.n_workers):
            queue = runtime.worker_queue(w)
            runtime.mq.declare(queue)
            runtime.exchange.bind(queue)

    def _run_role(self, function: str, payload: Dict[str, Any]) -> Generator:
        """Invoke ``function``; re-invoke while it asks for a relaunch.

        With fault tolerance on, a *failed* activation (crash, timeout,
        storage error) is also re-invoked — resuming from its checkpoint —
        with capped exponential backoff, up to ``max_invoke_retries``
        consecutive failures; after that a worker role is abandoned (the
        supervisor shrinks the pool around it) while a supervisor failure
        is fatal to the job.
        """
        config = self.runtime.config
        attempt = 0
        while True:
            activation = self.platform.invoke(function, payload)
            try:
                yield activation.process
                result = activation.result()
            except Interrupt:
                # Driver shutdown: kill the live activation so it gets
                # finalized (and billed) instead of lingering unfinished.
                if activation.process.is_alive:
                    activation.process.interrupt(cause="driver-shutdown")
                return {"outcome": "abandoned", "function": function}
            except Exception as error:
                if not config.ft_enabled:
                    raise
                attempt += 1
                if attempt > config.max_invoke_retries:
                    if function.endswith("supervisor"):
                        raise
                    self.runtime.note_recovery("worker_retries_exhausted")
                    return {
                        "outcome": "abandoned",
                        "function": function,
                        "error": repr(error),
                    }
                self.runtime.note_recovery("invoke_retry")
                if self.runtime.tracer.enabled:
                    self.runtime.tracer.event(
                        "invoke",
                        "retry",
                        function=function,
                        attempt=attempt,
                        error=type(error).__name__,
                    )
                backoff = min(
                    config.retry_backoff_base_s * 2 ** (attempt - 1),
                    config.retry_backoff_cap_s,
                )
                try:
                    yield self.env.timeout(backoff)
                except Interrupt:
                    return {"outcome": "abandoned", "function": function}
                payload = {**payload, "resume": True}
                continue
            attempt = 0
            if isinstance(result, dict) and result.get("outcome") == "relaunch":
                if self.runtime.tracer.enabled:
                    self.runtime.tracer.event(
                        "invoke", "relaunch", function=function
                    )
                payload = {**payload, "resume": True}
                continue
            if function.endswith("supervisor"):
                self._supervisor_report = result
            return result
