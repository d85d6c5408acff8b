"""Discrete-event simulation kernel.

A minimal but complete process-based DES engine in the style of SimPy,
written from scratch so the whole cloud substrate (FaaS platform, storage
services, VM clusters) can run on a deterministic simulated clock.

The central pieces are:

``Environment``
    Owns the simulated clock and the pending-event set, and drives the
    simulation forward with :meth:`Environment.run` / :meth:`Environment.step`.

``Event``
    A one-shot occurrence with a value.  Processes wait on events by
    yielding them.

``Process``
    Wraps a Python generator.  Each ``yield`` hands an event back to the
    kernel; the process resumes when that event fires.  A ``Process`` is
    itself an event that triggers when the generator returns, so processes
    compose (a process can wait for another process).

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling (ties broken by a monotonically increasing sequence
number), so runs are exactly reproducible.

Pending-event structure
-----------------------

The kernel delivers events in ``(time, seq)`` order from two containers,
popping whichever head is smaller:

``_nowq``
    A deque of delay-zero schedules (``succeed``/``fail`` wakeups, Store
    handoffs, process starts).  Simulated time never moves backwards and
    ``seq`` is monotone, so the deque is sorted by construction and a
    wakeup is an O(1) append/popleft instead of a push through whatever
    timers are pending.

``_heap``
    One binary heap of ``(time, seq, event)`` for every delayed schedule.
    The committed workloads keep at most a few hundred timers pending, a
    size at which C ``heapq`` is a handful of comparisons.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
]

class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party may attach a ``cause`` describing why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from a triggered event whose
# value happens to be ``None``.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks to run at the current simulated
    time.  Once triggered, an event cannot be triggered again.

    Events are the highest-churn allocation of the whole simulator (every
    simulated service call makes several), so the class — and every
    subclass — carries ``__slots__``; state beyond the slots must live in
    the payloads the kernel passes around, never as ad-hoc attributes.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set by the kernel when a failure was delivered to at least one
        #: waiter (or explicitly defused), so unhandled failures can be
        #: reported instead of silently dropped.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (``callbacks`` is then ``None``)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance when it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Delay-zero scheduling is inlined (now-queue append): wakeups are
        the single hottest kernel entry point after timeouts.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        env._nowq.append((env._now, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception re-raised at their
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        env._nowq.append((env._now, seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        from .events import AllOf

        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        from .events import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are born triggered, so ``__init__`` writes the slots
    directly instead of going through :class:`Event` and overwriting,
    and inlines :meth:`Environment._schedule` — this is the hottest
    constructor in the simulator (every simulated latency is one).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        if delay == 0.0:
            env._nowq.append((env._now, seq, self))
        else:
            heapq.heappush(env._heap, (env._now + delay, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that starts a :class:`Process` at spawn time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self.defused = False
        env._schedule(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator drives the process: every value it ``yield``\\ s must be
    an :class:`Event`; the process suspends until that event triggers.  If
    the event failed, its exception is re-raised inside the generator so it
    can be caught with ordinary ``try/except``.

    The process itself is an event that succeeds with the generator's
    return value (or fails with its uncaught exception).
    """

    __slots__ = ("_generator", "name", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        #: the bound resume callback, created once — every yield appends
        #: it to an event's callbacks, so don't rebuild the bound method
        #: each time
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the event currently waited on, then schedule an
        # immediate resumption that raises Interrupt inside the generator.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        event = Event(self.env)
        event.callbacks.append(self._resume_cb)
        event.fail(Interrupt(cause))
        event.defused = True

    # -- kernel interface -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                env._active_process = None
                # _resume_cb makes self a reference cycle: drop it, so a
                # finished process is freed by refcount, not the collector.
                self._generator = self._resume_cb = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._generator = self._resume_cb = None
                self.fail(exc)
                return

            # Duck-typed event check: anything without a ``callbacks``
            # attribute is not an event.  (A separate try block so user
            # AttributeErrors inside send/throw above are not masked.)
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                env._active_process = None
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                generator.close()
                self._generator = self._resume_cb = None
                self.fail(error)
                return

            if callbacks is not None:
                # Event still pending (or triggered but not yet processed):
                # register and suspend.
                self._target = next_event
                callbacks.append(self._resume_cb)
                env._active_process = None
                return

            # Event already processed: feed its value straight back in.
            event = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"


class Environment:
    """The simulation environment: clock plus pending-event structure."""

    __slots__ = (
        "_now",
        "_seq",
        "_active_process",
        "_nowq",
        "_heap",
        "_profile",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: delay-zero schedules, already sorted by construction
        self._nowq: deque = deque()
        #: every delayed schedule, a heap of (time, seq, event)
        self._heap: List = []
        self._profile: Optional[Dict[str, Any]] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being executed, if any."""
        return self._active_process

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> "Condition":
        from .events import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> "Condition":
        from .events import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._nowq.append((self._now, seq, event))
        else:
            heapq.heappush(self._heap, (self._now + delay, seq, event))

    def _timeout_at(self, at: float) -> Timeout:
        """A :class:`Timeout` at absolute ``at >= now``, not re-rounded as ``now + (at - now)``."""
        timeout = Timeout.__new__(Timeout)
        timeout.env, timeout.callbacks, timeout._value = self, [], None
        timeout._ok, timeout.defused, timeout.delay = True, False, at - self._now
        heapq.heappush(self._heap, (at, self._seq, timeout))
        self._seq += 1
        return timeout

    def _retime(self, timeout: Timeout, at: float) -> None:
        """Move a still-queued :meth:`_timeout_at` timeout to the earlier time ``at``."""
        if timeout.callbacks is not None:
            i = next(i for i, entry in enumerate(self._heap) if entry[2] is timeout)
            self._heap[i] = (at, self._heap[i][1], timeout)
            heapq.heapify(self._heap)

    def _pop_next(self, stop_at: float = float("inf")) -> Optional[tuple]:
        """Remove and return the globally next ``(time, seq, event)``.

        Returns ``None`` when no event remains or the next event lies
        beyond ``stop_at`` (in which case nothing is removed).
        """
        nowq = self._nowq
        heap = self._heap
        if nowq and (not heap or nowq[0] < heap[0]):
            return nowq.popleft() if nowq[0][0] <= stop_at else None
        if heap and heap[0][0] <= stop_at:
            return heapq.heappop(heap)
        return None

    def _pending_count(self) -> int:
        return len(self._nowq) + len(self._heap)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        heads = [q[0][0] for q in (self._nowq, self._heap) if q]
        return min(heads, default=float("inf"))

    def step(self) -> None:
        """Process the single next event in the queue."""
        entry = self._pop_next()
        if entry is None:
            raise SimulationError("no scheduled events")
        self._now = entry[0]
        event = entry[2]
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # A failure nobody waited on: surface it rather than losing it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers; its value is returned, or its exception raised if it
        failed — whether it fires during this call or already has).
        """
        stop_at = float("inf")
        stop_at_given = False
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            stop_event.callbacks.append(self._stop_callback)
        else:
            stop_at = float(until)
            stop_at_given = True
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )

        try:
            if self._profile is None:
                self._run_fast(stop_at)
            else:
                self._run_profiled(stop_at)
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "run() finished with no remaining events, but the 'until' "
                "event was never triggered"
            )
        if stop_event is None and stop_at_given:
            self._now = stop_at
        return None

    def _run_fast(self, stop_at: float) -> None:
        """The hot loop: :meth:`_pop_next` + :meth:`step` fused and inlined.

        Both containers are cached as locals and only ever mutated in
        place (never rebound), so the cache stays valid across callbacks
        that schedule new events.
        """
        nowq = self._nowq
        heap = self._heap
        heappop = heapq.heappop
        while True:
            if nowq and (not heap or nowq[0] < heap[0]):
                if nowq[0][0] > stop_at:
                    return
                best = nowq.popleft()
            elif heap:
                if heap[0][0] > stop_at:
                    return
                best = heappop(heap)
            else:
                return
            self._now = best[0]
            event = best[2]
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event.defused:
                # A failure nobody waited on: surface it, don't drop it.
                raise event._value

    def _run_profiled(self, stop_at: float) -> None:
        """Instrumented run loop: per-event-type count/time accounting.

        Uses the injected timer (the sim layer never reads wall clocks
        itself).
        """
        prof = self._profile
        timer = prof["timer"]
        events = prof["events"]
        while True:
            entry = self._pop_next(stop_at)
            if entry is None:
                return
            self._now = entry[0]
            event = entry[2]
            callbacks, event.callbacks = event.callbacks, None
            start = timer()
            for callback in callbacks:
                callback(event)
            elapsed = timer() - start
            key = type(event).__name__
            stats = events.get(key)
            if stats is None:
                events[key] = [1, elapsed]
            else:
                stats[0] += 1
                stats[1] += elapsed
            if not event._ok and not event.defused:
                raise event._value

    # -- profiling ------------------------------------------------------
    def enable_profile(self, timer: Callable[[], int]) -> None:
        """Turn on kernel profiling for subsequent :meth:`run` calls.

        ``timer`` is a nanosecond counter (e.g. ``time.perf_counter_ns``)
        injected by the host-side caller — the simulated layer does not
        read wall clocks itself.  Collects a per-event-type count/time
        breakdown; read the result with :meth:`profile_report`.
        """
        self._profile = {"timer": timer, "events": {}}

    def profile_report(self) -> Dict[str, Any]:
        """Snapshot of collected profile data as plain dicts."""
        prof = self._profile
        if prof is None:
            raise SimulationError("profiling is not enabled (call enable_profile)")
        event_types = {
            name: {"count": count, "total_ns": total_ns}
            for name, (count, total_ns) in sorted(prof["events"].items())
        }
        return {"event_types": event_types}

    def _stop_callback(self, event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self._pending_count()}>"
