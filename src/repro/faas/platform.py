"""The simulated FaaS platform: registry, scheduler, containers, billing.

Responsibilities:

* **Registry** — functions are registered once (:meth:`FaaSPlatform.register`)
  and invoked by name.
* **Dispatch** — each invocation pays a warm or cold dispatch latency.
  Warm containers are tracked per function with a keep-alive window, so
  repeated invocations (e.g. PyWren's per-iteration maps) mostly hit warm
  containers after the first wave.
* **Limits** — platform-wide concurrency cap and the 10-minute duration
  cap; an activation that overruns is interrupted and fails with
  :class:`ActivationTimeout`.
* **Billing** — every activation produces an
  :class:`~repro.faas.billing.ActivationRecord` (100 ms-rounded GB-s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..sim import Environment, Interrupt, Process, RandomStreams, Resource
from ..trace.tracer import NO_SPAN, NULL_TRACER
from .billing import ActivationRecord, FaaSBilling
from .coldstart import ColdStartModel
from .function import (
    ActivationCrash,
    ActivationTimeout,
    FunctionSpec,
    InvocationContext,
)
from .limits import FaaSLimits, IBM_CLOUD_FUNCTIONS_LIMITS

__all__ = ["FaaSPlatform", "Activation"]


@dataclass
class _WarmPool:
    """Idle warm containers for one function: (container id, idle since)."""

    idle: List[Tuple[int, float]] = field(default_factory=list)

    def try_take(self, now: float, keep_alive: float) -> Optional[int]:
        """Claim a still-alive warm container (most recently used first),
        evicting expired ones; returns its id, or None on a miss."""
        self.idle = [(c, t) for c, t in self.idle if now - t <= keep_alive]
        if self.idle:
            return self.idle.pop()[0]
        return None

    def put_back(self, container_id: int, now: float) -> None:
        self.idle.append((container_id, now))


class Activation:
    """A handle to one running (or finished) function activation."""

    def __init__(
        self,
        platform: "FaaSPlatform",
        spec: FunctionSpec,
        activation_id: int,
        process: Optional[Process],
        cold: bool,
        submitted_at: float,
    ):
        self.platform = platform
        self.function = spec.name
        self.memory_mb = spec.memory_mb
        self.activation_id = activation_id
        self.process = process
        self.cold = cold
        self.submitted_at = submitted_at
        #: when execution actually began (queue wait excluded) — billing
        #: starts here, not at submission
        self.started_at = submitted_at
        #: identity of the container that ran (or is running) this
        #: activation; -1 until dispatch assigns one
        self.container_id = -1
        self.record: Optional[ActivationRecord] = None
        #: tracer span id of the "invoke" span (NO_SPAN when untraced)
        self.span_id = NO_SPAN

    @property
    def done(self) -> bool:
        return self.record is not None

    def result(self) -> Any:
        """Return value of the handler; raises its exception on failure."""
        if not self.process.triggered:
            raise RuntimeError(f"activation {self.activation_id} still running")
        if not self.process.ok:
            raise self.process.value
        return self.process.value

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<Activation {self.function}#{self.activation_id} {state}>"


class FaaSPlatform:
    """The platform facade: register and invoke functions."""

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        limits: FaaSLimits = IBM_CLOUD_FUNCTIONS_LIMITS,
        cold_start: ColdStartModel = ColdStartModel(),
        billing: Optional[FaaSBilling] = None,
        services: Any = None,
        queue_when_full: bool = False,
        faults: Any = None,
        tracer: Any = None,
        label: str = "faas",
    ):
        self.env = env
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(env)
        self.limits = limits
        self.cold_start = cold_start
        self.billing = billing if billing is not None else FaaSBilling()
        self.services = services
        #: optional :class:`~repro.faults.FaultInjector`; None = no faults
        self.faults = faults
        #: at the concurrency cap: queue invocations (real platform
        #: behaviour) instead of rejecting them with an error
        self.queue_when_full = queue_when_full
        #: identity of this platform instance on billing records and
        #: invoke spans — activation ids are only unique per platform, so
        #: worlds with several pools feeding one consolidated bill must
        #: give each pool a distinct label (see CostLedger)
        self.label = label
        self._rng = streams.stream("faas.dispatch")
        self._functions: Dict[str, FunctionSpec] = {}
        self._warm: Dict[str, _WarmPool] = {}
        self._next_activation_id = 0
        self._next_container_id = 0
        self._running = 0
        self._slots = Resource(env, capacity=limits.max_concurrency)
        self.activations: List[Activation] = []
        #: container lifecycle, for warm-reuse and idle-cost analysis:
        #: (sim time, event, function, container_id, activation_id) with
        #: event one of "provision" (cold boot), "acquire" (warm hit),
        #: "release" (back to the warm pool), "lost" (crashed container)
        self.container_log: List[Tuple[float, str, str, int, int]] = []

    # -- registry ---------------------------------------------------------
    def register(self, spec: FunctionSpec) -> None:
        spec.validate(self.limits)
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered")
        self._functions[spec.name] = spec
        self._warm[spec.name] = _WarmPool()

    def is_registered(self, name: str) -> bool:
        return name in self._functions

    @property
    def running_count(self) -> int:
        return self._running

    # -- invocation ---------------------------------------------------------
    def invoke(self, name: str, payload: Any = None) -> Activation:
        """Start an activation of function ``name``; returns immediately.

        The returned :class:`Activation` wraps a simulation process; wait
        on ``activation.process`` inside another process, or run the
        environment until it completes.
        """
        if name not in self._functions:
            raise KeyError(f"function {name!r} is not registered")
        spec = self._functions[name]
        if (
            not self.queue_when_full
            and self._running >= self.limits.max_concurrency
        ):
            raise RuntimeError(
                f"platform concurrency cap ({self.limits.max_concurrency}) reached"
            )

        activation_id = self._next_activation_id
        self._next_activation_id += 1
        self._running += 1

        activation = Activation(
            self, spec, activation_id, None, cold=True, submitted_at=self.env.now
        )
        if self.tracer.enabled:
            activation.span_id = self.tracer.begin(
                "invoke",
                f"{name}#{activation_id}",
                function=name,
                activation_id=activation_id,
                memory_mb=spec.memory_mb,
                pool=self.label,
            )
        process = self.env.process(
            self._run_activation(spec, activation_id, payload, activation),
            name=f"{name}#{activation_id}",
        )
        if activation.span_id >= 0:
            # Spans opened by the activation process (coldstart, compute,
            # storage ops) nest under the invoke span, not the caller's.
            self.tracer.adopt(process, activation.span_id)
        activation.process = process
        self.activations.append(activation)
        # Record billing when the process finishes, whatever the outcome.
        process.callbacks.append(lambda _evt: self._finalize(activation))
        return activation

    def _run_activation(
        self,
        spec: FunctionSpec,
        activation_id: int,
        payload: Any,
        activation: "Activation",
    ) -> Generator:
        slot = self._slots.request()
        crashed = False
        container_id: Optional[int] = None
        try:
            yield slot
            # Warm/cold is decided at dispatch (after any queueing delay).
            container_id = self._warm[spec.name].try_take(
                self.env.now, self.cold_start.keep_alive
            )
            cold = container_id is None
            if cold:
                container_id = self._next_container_id
                self._next_container_id += 1
                self.container_log.append(
                    (self.env.now, "provision", spec.name, container_id, activation_id)
                )
            else:
                self.container_log.append(
                    (self.env.now, "acquire", spec.name, container_id, activation_id)
                )
            activation.cold = cold
            activation.container_id = container_id
            activation.started_at = self.env.now
            dispatch_base, cold_extra = self.cold_start.dispatch_components(
                not cold, self._rng
            )
            dispatch = dispatch_base + cold_extra
            compute_scale = 1.0
            crash_after: Optional[float] = None
            if self.faults is not None:
                if cold:
                    dispatch *= self.faults.coldstart_multiplier()
                crash_after = self.faults.crash_delay(spec.name)
                compute_scale = self.faults.compute_scale(spec.name)
            sp = NO_SPAN
            if self.tracer.enabled:
                sp = self.tracer.begin(
                    "coldstart",
                    "dispatch",
                    cold=cold,
                    dispatch_s=dispatch,
                    cold_extra_s=cold_extra,
                )
            try:
                yield self.env.timeout(dispatch)
            finally:
                if sp >= 0:
                    self.tracer.end(sp)
            ctx = InvocationContext(
                self.env,
                self,
                spec.name,
                activation_id,
                spec.memory_mb,
                services=self.services,
                compute_scale=compute_scale,
                tracer=self.tracer,
                span_id=activation.span_id,
            )
            body = self.env.process(
                spec.handler(ctx, payload), name=f"{spec.name}#{activation_id}.body"
            )
            if activation.span_id >= 0:
                self.tracer.adopt(body, activation.span_id)
            deadline = self.env.timeout(self.limits.max_duration_s)
            racers = [body, deadline]
            crash = None
            if crash_after is not None:
                crash = self.env.timeout(crash_after)
                racers.append(crash)
            result = yield self.env.any_of(racers)
            if body in result:
                return result[body]
            if crash is not None and crash in result and deadline not in result:
                # Injected crash fired before the handler finished: the
                # container is lost, so no warm reuse, but the consumed
                # GB-seconds are still billed (via _finalize).
                crashed = True
                self.faults.stats.note_injected("activation_crash")
                if body.is_alive:
                    body.interrupt(cause="fault-injected-crash")
                    try:
                        yield body
                    except (Interrupt, Exception):
                        pass
                raise ActivationCrash(spec.name, crash_after)
            # Duration cap hit: kill the handler.
            if body.is_alive:
                body.interrupt(cause="duration-limit")
                try:
                    yield body
                except (Interrupt, Exception):
                    pass
            raise ActivationTimeout(spec.name, self.limits.max_duration_s)
        finally:
            self._running -= 1
            # Only an activation that actually acquired a container can
            # return one — a failure while still queued must not conjure a
            # phantom warm container.
            if container_id is not None:
                if crashed:
                    self.container_log.append(
                        (self.env.now, "lost", spec.name, container_id, activation_id)
                    )
                else:
                    self._warm[spec.name].put_back(container_id, self.env.now)
                    self.container_log.append(
                        (self.env.now, "release", spec.name, container_id, activation_id)
                    )
            self._slots.release(slot)

    def _finalize(self, activation: Activation) -> None:
        process = activation.process
        record = ActivationRecord(
            function=activation.function,
            activation_id=activation.activation_id,
            memory_mb=activation.memory_mb,
            start=activation.started_at,
            end=self.env.now,
            cold=activation.cold,
            ok=bool(process.ok),
            pool=self.label,
            container_id=activation.container_id,
        )
        activation.record = record
        self.billing.add(record)
        if activation.span_id >= 0:
            self.tracer.end(
                activation.span_id,
                cold=record.cold,
                ok=record.ok,
                billed_s=record.billed_duration,
                gb_s=record.gb_seconds,
            )
        if not process.ok:
            # The platform observed the failure; don't crash the kernel if
            # no caller is waiting (failed activations are a normal FaaS
            # outcome surfaced via activation.result()).
            process.defused = True

    # -- warm-pool control ----------------------------------------------
    def warm_count(self, name: Optional[str] = None) -> int:
        """Idle warm containers for ``name`` (or across all functions).

        Counts lazily — containers whose keep-alive has expired but were
        not yet evicted by a dispatch are still included; billing-side
        accounting computes expiry times from :attr:`container_log`.
        """
        if name is not None:
            return len(self._warm[name].idle)
        return sum(len(pool.idle) for pool in self._warm.values())

    def reclaim_warm(self) -> List[Tuple[str, int]]:
        """Tear down every idle warm container (pool scale-to-zero).

        The next invocation of each function pays a cold start again.
        Returns the reclaimed ``(function, container_id)`` pairs and logs
        a ``"reclaim"`` container event for each, so idle-cost accounting
        can bound each container's billable idle tail at the reclaim.
        """
        reclaimed: List[Tuple[str, int]] = []
        for fn in sorted(self._warm):
            pool = self._warm[fn]
            for container_id, _idle_since in pool.idle:
                reclaimed.append((fn, container_id))
                self.container_log.append(
                    (self.env.now, "reclaim", fn, container_id, -1)
                )
            pool.idle = []
        return reclaimed

    # -- convenience ----------------------------------------------------
    def map(self, name: str, payloads: List[Any]) -> List[Activation]:
        """Fan out one activation per payload (PyWren-style map)."""
        return [self.invoke(name, p) for p in payloads]

    def __repr__(self) -> str:
        return (
            f"<FaaSPlatform functions={len(self._functions)} "
            f"running={self._running} activations={len(self.activations)}>"
        )
