"""Function specifications and activation context.

A *function* is registered code plus a memory setting.  Handlers are
simulation-process generator functions, written in one of two styles:

1. **Direct DES style** — yield simulation events and service-process
   generators straight from the handler::

       def handler(ctx, payload):
           yield from ctx.compute(cpu_seconds=0.05)
           data = yield from ctx.services.cos.get("bucket", "key")
           return result

2. **Backend-neutral machine style** — write the logic as a plain
   machine against :class:`repro.exec.protocols.ExecutionContext` and
   wrap it with :func:`repro.exec.sim.as_sim_handler` (how the MLLess
   worker/supervisor are registered).  Such machines also run unchanged
   on the real local backend (:mod:`repro.exec.local`); use
   :meth:`InvocationContext.execution_context` to build the sim-side
   context by hand when composing manually.

``ctx`` (an :class:`InvocationContext`) provides the simulated clock, the
platform services, and :meth:`InvocationContext.compute`, which charges CPU
time scaled by the activation's vCPU share (a 1024 MB function computes at
half speed — the memory→CPU coupling of IBM Cloud Functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..sim import Environment, Interrupt, Timeout
from ..trace.tracer import NO_SPAN, NULL_TRACER
from .limits import FaaSLimits

__all__ = [
    "FunctionSpec",
    "InvocationContext",
    "ActivationTimeout",
    "ActivationCrash",
]


class ActivationTimeout(Exception):
    """Raised inside a handler when the platform duration cap is hit."""

    def __init__(self, function: str, limit_s: float):
        super().__init__(f"activation of {function!r} exceeded {limit_s:.0f}s limit")
        self.function = function
        self.limit_s = limit_s


class ActivationCrash(Exception):
    """An injected fault killed the activation mid-flight.

    Models a container OOM-kill or host failure: the handler stops at an
    arbitrary point, the container is lost (no warm reuse), and the
    consumed GB-seconds are still billed.
    """

    def __init__(self, function: str, after_s: float):
        super().__init__(
            f"activation of {function!r} crashed {after_s:.3f}s after start "
            "(injected fault)"
        )
        self.function = function
        self.after_s = after_s


@dataclass(frozen=True)
class FunctionSpec:
    """Registered function: name, handler generator-function, memory."""

    name: str
    handler: Callable[["InvocationContext", Any], Generator]
    #: the paper's functions are 2 GB (§6.1); MLLess and PyWren roles use this
    memory_mb: int = 2048

    def validate(self, limits: FaaSLimits) -> None:
        limits.validate_memory(self.memory_mb)
        if not callable(self.handler):
            raise TypeError(f"handler for {self.name!r} is not callable")


class InvocationContext:
    """What a running activation sees: clock, services, compute charging."""

    def __init__(
        self,
        env: Environment,
        platform: "FaaSPlatform",  # noqa: F821 - forward ref
        function: str,
        activation_id: int,
        memory_mb: int,
        services: Any = None,
        compute_scale: float = 1.0,
        tracer: Any = NULL_TRACER,
        span_id: int = NO_SPAN,
    ):
        self.env = env
        self.platform = platform
        self.function = function
        self.activation_id = activation_id
        self.memory_mb = memory_mb
        self.cpu_share = platform.limits.cpu_share(memory_mb)
        #: service bundle (object store, KV store, MQ, ...) given at invoke
        self.services = services
        #: >1.0 when a straggler fault degrades this activation's host
        self.compute_scale = compute_scale
        #: observability hooks — the enclosing invoke span, if tracing
        self.tracer = tracer
        self.span_id = span_id

    @property
    def now(self) -> float:
        return self.env.now

    def compute(self, cpu_seconds: float, steps: int = 1) -> Generator:
        """Charge ``steps`` back-to-back steps of ``cpu_seconds`` at this activation's share."""
        if cpu_seconds < 0:
            raise ValueError(f"cpu_seconds must be >= 0, got {cpu_seconds}")
        wall = cpu_seconds / self.cpu_share * self.compute_scale
        sp = NO_SPAN
        if self.tracer.enabled:
            sp = self.tracer.begin(
                "compute", "compute", cpu_s=cpu_seconds * steps, wall_s=wall * steps
            )
        try:
            if steps == 1:
                yield Timeout(self.env, wall)
            else:
                end = start = self.env._now
                for _ in range(steps):  # one event, at the per-step float chain's end
                    end += wall
                timeout = self.env._timeout_at(end)
                try:
                    yield timeout
                except Interrupt:  # fire where the step in progress would have
                    while start < self.env._now:
                        start += wall
                    self.env._retime(timeout, start)
                    raise
        finally:
            if sp >= 0:
                self.tracer.end(sp)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to this activation's invoke span (no-op untraced)."""
        if self.tracer.enabled and self.span_id >= 0:
            self.tracer.annotate(self.span_id, **attrs)

    def sleep(self, seconds: float) -> Generator:
        """Idle wait (still billed by the platform — FaaS charges wall time)."""
        yield self.env.timeout(seconds)

    def remaining_time(self, started_at: float) -> float:
        """Seconds left before the duration cap, given the start time."""
        return self.platform.limits.max_duration_s - (self.env.now - started_at)

    def execution_context(self, runtime: Any) -> Any:
        """A backend-neutral execution context over this activation.

        Builds the :class:`repro.exec.sim.SimExecutionContext` that lets
        a backend-neutral machine (see :mod:`repro.exec.protocols`) run
        inside this activation against ``runtime``'s service handles.
        """
        from ..exec.sim import SimExecutionContext

        return SimExecutionContext(self, runtime)

    def __repr__(self) -> str:
        return (
            f"<InvocationContext {self.function}#{self.activation_id} "
            f"{self.memory_mb}MB>"
        )
