"""The backend contract: what the training core may ask of its substrate.

The worker/supervisor state machines in :mod:`repro.core` are plain
Python generators.  They never touch the DES kernel, real sockets, or
the host clock directly — every interaction with the outside world goes
through the narrow interfaces defined here:

``Services``
    The data plane (object store, KV store, message queue, broadcast
    exchange) plus CPU-time accounting and sleeping — one concrete class
    over whatever handles a backend supplies.  Each data-plane method
    returns an opaque :class:`ServiceCall` token; the machine **yields**
    the token and receives the operation's result at the same ``yield``
    expression.  A token is a zero-argument thunk over the handle's own
    method; how its value is obtained is the backend's business (the
    simulator ``yield from``\\ s the DES generator the thunk returns, the
    host backends take the thunk's return value as the result), so
    machines stay backend-neutral by construction.  This module imports
    nothing host-side: sleeping and CPU charging are injected.

``Clock``
    Synchronous reads of the backend's notion of time: simulated seconds
    under :mod:`repro.exec.sim`, wall-clock seconds under
    :mod:`repro.exec.local` and :mod:`repro.exec.procs`.  Reading a
    clock never blocks and never schedules anything.

``Spawner``
    Fire-and-forget execution of another machine (the supervisor's
    detached garbage-collection sweeps).  A DES process in the
    simulator; a daemon thread in the host backends.

``ExecutionContext``
    The bundle a machine receives: services + clock + spawner + tracer,
    plus the per-activation ``annotate`` hook.

The module also defines the observability protocols the runtime carries
(:class:`TracerLike`, :class:`FaultSink`) so backends type-check against
them instead of duck-typing ``Any``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, Optional, Protocol, runtime_checkable

__all__ = [
    "ServiceCall",
    "Machine",
    "Services",
    "Clock",
    "Spawner",
    "ExecutionContext",
    "RecoveryStats",
    "FaultSink",
    "TracerLike",
]

#: What a backend-neutral machine yields: an opaque token minted by
#: :class:`Services`.  Calling it yields a DES generator under the
#: simulator and blocks for the result under the host backends.
ServiceCall = Any

#: A backend-neutral state machine: yields :data:`ServiceCall` tokens,
#: receives each operation's result at the yield, returns a result dict.
Machine = Generator


class Services:
    """The data plane a training machine may use, one method per verb.

    The one implementation, shared by every backend.  A backend hands in
    the handles it already has — object store, KV store, message queue,
    broadcast exchange — plus how CPU time is charged and how to sleep;
    every verb except :meth:`unbind` returns a zero-argument thunk over
    the handle's own method, to be yielded.  Nothing runs until the
    backend's ``drive`` calls the thunk, so results (and service errors)
    are delivered at the yield expression.  ``unbind`` is control-plane
    metadata and synchronous in every backend, so it is a plain call.
    """

    __slots__ = ("cos", "kv", "mq", "exchange", "_compute", "_sleep")

    def __init__(
        self,
        cos: Any,
        kv: Any,
        mq: Any,
        exchange: Any,
        compute: Callable[..., Any],
        sleep: Callable[[float], Any],
    ):
        self.cos = cos
        self.kv = kv
        self.mq = mq
        self.exchange = exchange
        self._compute = compute
        self._sleep = sleep

    # -- object store (mini-batches) ------------------------------------
    def cos_get(self, bucket: str, key: str) -> ServiceCall:
        return partial(self.cos.get, bucket, key)

    # -- KV store (updates, checkpoints, replicas) ----------------------
    def kv_set(self, key: str, value: Any) -> ServiceCall:
        return partial(self.kv.set, key, value)

    def kv_get(self, key: str) -> ServiceCall:
        return partial(self.kv.get, key)

    def kv_get_or_none(self, key: str) -> ServiceCall:
        return partial(self.kv.get_or_none, key)

    def kv_delete(self, key: str) -> ServiceCall:
        return partial(self.kv.delete, key)

    def kv_exists(self, key: str) -> ServiceCall:
        return partial(self.kv.exists, key)

    # -- message queue (control messages) -------------------------------
    def mq_publish(self, queue: str, message: Dict[str, Any]) -> ServiceCall:
        return partial(self.mq.publish, queue, message)

    def mq_consume(self, queue: str) -> ServiceCall:
        return partial(self.mq.consume, queue)

    def mq_consume_with_timeout(self, queue: str, timeout_s: float) -> ServiceCall:
        return partial(self.mq.consume_with_timeout, queue, timeout_s)

    def mq_drain(self, queue: str) -> ServiceCall:
        return partial(self.mq.drain, queue)

    # -- broadcast exchange ---------------------------------------------
    def broadcast(self, message: Dict[str, Any], exclude: str = "") -> ServiceCall:
        return partial(self.exchange.publish, message, exclude=exclude)

    def unbind(self, queue: str) -> None:
        self.exchange.unbind(queue)

    # -- execution accounting -------------------------------------------
    def compute(self, cpu_seconds: float, steps: int = 1) -> ServiceCall:
        if steps == 1:
            return partial(self._compute, cpu_seconds)
        return partial(self._compute, cpu_seconds, steps)

    def sleep(self, seconds: float) -> ServiceCall:
        return partial(self._sleep, seconds)


class Clock(Protocol):
    """Synchronous time reads; which clock depends on the backend."""

    def now(self) -> float: ...

    def remaining_time(self, started_at: float) -> float:
        """Seconds left before the activation duration cap."""
        ...


class Spawner(Protocol):
    """Detached execution of a machine (GC sweeps, side work)."""

    def spawn(self, machine: Machine, name: str = "") -> None: ...


class RecoveryStats(Protocol):
    """The slice of fault statistics the training core reports into."""

    def note_recovered(self, kind: str) -> None: ...


@runtime_checkable
class FaultSink(Protocol):
    """Where the runtime counts recovery actions (a FaultInjector)."""

    @property
    def stats(self) -> RecoveryStats: ...


class TracerLike(Protocol):
    """The span-tracer surface the core and the backends program against.

    Satisfied structurally by both :class:`repro.trace.Tracer` and the
    no-op :data:`repro.trace.NULL_TRACER`; instrumented paths guard with
    ``if tracer.enabled:`` so the null tracer costs one attribute read.
    """

    enabled: bool

    def bind(self, env: Any) -> "TracerLike": ...

    def begin(self, category: str, name: str, **attrs: Any) -> int: ...

    def end(self, span_id: int, **attrs: Any) -> None: ...

    def event(self, category: str, name: str, **attrs: Any) -> int: ...

    def annotate(self, span_id: int, **attrs: Any) -> None: ...

    def adopt(self, process: Any, span_id: int) -> None: ...

    def current_span_id(self) -> int: ...


class ExecutionContext:
    """What one activation of a training machine gets to work with.

    Concrete backends construct one per role activation and may override
    :meth:`annotate` to attach attributes to their invoke span.
    """

    __slots__ = ("services", "clock", "spawner", "tracer")

    def __init__(
        self,
        services: Services,
        clock: Clock,
        spawner: Spawner,
        tracer: Optional[TracerLike] = None,
    ):
        if tracer is None:
            from ..trace.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.services = services
        self.clock = clock
        self.spawner = spawner
        self.tracer = tracer

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the enclosing activation span (no-op here)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} services={type(self.services).__name__}>"
