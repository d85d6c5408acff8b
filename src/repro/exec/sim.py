"""Simulation backend: run backend-neutral machines on the DES kernel.

This adapter closes the loop between the plain-Python training machines
in :mod:`repro.core` and the simulated cloud substrate (``Environment``,
``FaaSPlatform``, the simulated COS/KV/MQ services).  It is **bit
identical by construction** to the pre-refactor handlers that yielded
DES events directly:

* every :class:`~repro.exec.protocols.Services` token is a thunk over
  the simulated service's own method (``runtime.kv.get`` and friends,
  ``ctx.compute``/``ctx.sleep`` for accounting), so calling it returns
  *exactly* that service's process generator, and
* :func:`drive` resolves each yielded token with ``yield from call()``
  — generators are lazy, so this is the statement the old handlers
  contained inline,

so the kernel observes the same events, in the same order, drawn from
the same RNG streams, at the same simulated times.  The determinism
oracle (``repro determinism``) and the pinned-digest
regression tests in ``tests/exec/`` enforce this.

Exceptions keep their old semantics too: a failure raised by a service
generator (``KeyNotFound``, ``StorageError``, an ``Interrupt`` delivered
mid-wait) is thrown *into* the machine at its current yield, so the
machines' ``try/except StorageError`` recovery blocks and ``finally``
span cleanup behave exactly as when the service call was inlined.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from .protocols import ExecutionContext, Machine, Services

__all__ = [
    "SimClock",
    "SimSpawner",
    "SimExecutionContext",
    "drive",
    "as_sim_handler",
]


def drive(machine: Machine) -> Generator:
    """Process generator: resolve a machine's service calls on the DES.

    Each token the machine yields is a thunk returning a simulation
    process generator; that is exhausted with ``yield from`` and its
    return value (or exception) is fed back into the machine.  The
    result is a generator with the exact event footprint of the
    pre-refactor monolithic handlers.
    """
    value: Any = None
    pending: Any = None
    while True:
        try:
            if pending is not None:
                error, pending = pending, None
                call = machine.throw(error)
            else:
                call = machine.send(value)
        except StopIteration as stop:
            return stop.value
        try:
            value = yield from call()
        except GeneratorExit:
            # The kernel is closing this process: close the machine (its
            # finally blocks run) and let the close propagate.
            machine.close()
            raise
        except BaseException as error:  # delivered into the machine
            value = None
            pending = error


class SimClock:
    """Simulated time + the platform's activation duration cap."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: Any):
        self._ctx = ctx

    def now(self) -> float:
        return self._ctx.env.now

    def remaining_time(self, started_at: float) -> float:
        return self._ctx.remaining_time(started_at)


class SimSpawner:
    """Detached machines become detached DES processes."""

    __slots__ = ("_env",)

    def __init__(self, env: Any):
        self._env = env

    def spawn(self, machine: Machine, name: str = "") -> None:
        self._env.process(drive(machine), name=name)


class SimExecutionContext(ExecutionContext):
    """Per-activation bundle handed to a machine running in the DES."""

    __slots__ = ("_ctx",)

    def __init__(self, ctx: Any, runtime: Any):
        # CPU time and sleeps are charged via the activation (vCPU share,
        # straggler scale, compute span — see InvocationContext.compute).
        super().__init__(
            services=Services(
                runtime.cos, runtime.kv, runtime.mq, runtime.exchange,
                ctx.compute, ctx.sleep,
            ),
            clock=SimClock(ctx),
            spawner=SimSpawner(ctx.env),
            tracer=ctx.tracer,
        )
        self._ctx = ctx

    def annotate(self, **attrs: Any) -> None:
        self._ctx.annotate(**attrs)


def as_sim_handler(loop_fn: Callable[[ExecutionContext, Dict[str, Any]], Machine]):
    """Wrap a backend-neutral machine as a FaaS handler generator function.

    The returned callable satisfies the :class:`repro.faas.FunctionSpec`
    contract — ``handler(ctx, payload) -> Generator`` — by constructing
    the simulation execution context and driving the machine.
    """

    def handler(ctx: Any, payload: Dict[str, Any]) -> Generator:
        return drive(loop_fn(SimExecutionContext(ctx, payload["runtime"]), payload))

    handler.__name__ = getattr(loop_fn, "__name__", "machine") + "_sim_handler"
    handler.__qualname__ = handler.__name__
    handler.__doc__ = f"FaaS handler driving {loop_fn.__name__} on the simulator."
    return handler
