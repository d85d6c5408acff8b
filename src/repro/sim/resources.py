"""Shared resources for simulation processes.

``Resource``
    A counted resource (e.g. vCPU slots, connection pools).  Processes
    ``yield resource.request()`` to acquire a unit and call
    ``resource.release(req)`` (or use the request as a context manager via
    the two-phase pattern) to give it back.  FIFO granting.

``Store``
    An unbounded-or-bounded FIFO buffer of Python objects, the building
    block for queues and mailboxes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending acquisition of one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._request(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if not self.triggered:
            try:
                self.resource._waiters.remove(self)
            except ValueError:
                pass


class Resource:
    """A counted resource with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Request] = []

    @property
    def count(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a unit."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for one unit; the returned event fires when granted."""
        return Request(self)

    def _request(self, req: Request) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._waiters.append(req)

    def release(self, req: Request) -> None:
        """Return one unit previously granted to ``req``."""
        if not req.triggered:
            req.cancel()
            return
        if self._in_use <= 0:
            raise SimulationError("release() without a matching grant")
        if self._waiters:
            nxt = self._waiters.pop(0)
            nxt.succeed()
        else:
            self._in_use -= 1


class Store:
    """A FIFO object buffer with optionally bounded capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: blocked puts as (event, item) pairs — events are slotted, so
        #: payloads ride alongside them instead of as ad-hoc attributes
        self._putters: Deque[Tuple[Event, Any]] = deque()

    @property
    def items(self) -> List[Any]:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the event fires once there is room."""
        event = self.env.event()
        if len(self._items) < self.capacity:
            self._do_put(event, item)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        event = self.env.event()
        if self._items:
            self._do_get(event)
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending ``get`` so a future put skips it.

        Used by timed consumers: once the waiter gives up, its get event
        must leave the queue or the next item would be delivered to a
        consumer that is no longer listening (and silently lost).  A
        no-op if the event already fired or was never queued.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def _do_put(self, event: Event, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)
        event.succeed()

    def _do_get(self, event: Event) -> None:
        event.succeed(self._items.popleft())
        if self._putters and len(self._items) < self.capacity:
            putter, item = self._putters.popleft()
            self._do_put(putter, item)
