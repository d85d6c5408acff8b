"""Simulated messaging service (RabbitMQ stand-in).

MLLess uses the message queue for small control messages: update
announcements between workers, loss/statistics reports to the supervisor,
and supervisor commands (scale-in orders, termination).  The broker runs on
a provisioned C1.4x4 VM (Table 2), so it contributes to MLLess's bill.

The model offers named queues with publish/consume.  Consumption is
blocking: a consumer's ``get`` event fires when a message is available,
after the delivery latency.  Topic fan-out is provided by
:class:`Exchange`, which copies a published message into every bound queue
(how worker broadcasts reach all peers).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ..net import LatencyModel, LognormalLatency
from ..sim import Environment, RandomStreams, Store
from .base import StorageService

__all__ = ["MessageQueue", "Exchange"]

#: Same-zone AMQP publish+deliver: median 1.5 ms.
DEFAULT_LATENCY = LognormalLatency(median=0.0015, sigma=0.3, cap=0.05)
#: The broker VM has a 1 Gbps NIC.
DEFAULT_BANDWIDTH_BPS = 1e9


class MessageQueue(StorageService):
    """Named FIFO queues with timed publish and blocking consume."""

    trace_kind = "mq"

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        latency: LatencyModel = DEFAULT_LATENCY,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        name: str = "rabbitmq",
        faults=None,
        tracer=None,
    ):
        super().__init__(
            env, streams, latency, bandwidth_bps, name, faults=faults, tracer=tracer
        )
        self._queues: Dict[str, Store] = {}

    def declare(self, queue: str) -> None:
        """Create ``queue`` if it does not exist (idempotent)."""
        if queue not in self._queues:
            self._queues[queue] = Store(self.env)

    def _store(self, queue: str) -> Store:
        self.declare(queue)
        return self._queues[queue]

    def publish(self, queue: str, message: Any) -> Generator:
        """Process generator: deliver ``message`` into ``queue``.

        With a fault injector attached the message may be silently dropped
        (at-most-once loss) or delivered twice (at-least-once redelivery);
        the publisher is always charged for the attempt either way.
        """
        self.declare(queue)
        size = self.size_of(message)
        yield from self._charge("publish", size, inbound=True, detail=queue)
        self._deliver(queue, (message, size))

    def _deliver(self, queue: str, item: tuple) -> None:
        """Enqueue ``(message, wire size)`` into a declared queue: a message
        is sized once, by its publisher; consumers are charged that size."""
        store = self._queues[queue]
        if self.faults is not None:
            fate = self.faults.message_fate(queue)
            if fate == "drop":
                return
            if fate == "duplicate":
                store.put(item)
        store.put(item)  # unbounded store: put never blocks

    def consume(self, queue: str) -> Generator:
        """Process generator: block until a message arrives, return it."""
        store = self._store(queue)
        message, size = yield store.get()
        yield from self._charge("consume", size, inbound=False, detail=queue)
        return message

    def consume_with_timeout(self, queue: str, timeout_s: float) -> Generator:
        """Blocking consume that gives up after ``timeout_s`` seconds.

        Returns the message, or ``None`` on timeout.  The abandoned get is
        cancelled so a later message is not silently delivered to a
        consumer that stopped listening.
        """
        store = self._store(queue)
        get = store.get()
        timeout = self.env.timeout(timeout_s)
        yield get | timeout
        if get.triggered:
            message, size = get.value
            yield from self._charge("consume", size, inbound=False, detail=queue)
            return message
        store.cancel_get(get)
        yield from self._charge("poll", 8, inbound=False, detail=queue)
        return None

    def drain(self, queue: str) -> Generator:
        """Consume every currently queued message; returns a list."""
        store = self._store(queue)
        items: List[tuple] = []
        while len(store) > 0:
            items.append((yield store.get()))
        size = sum(size for _, size in items) if items else 8
        yield from self._charge("drain", size, inbound=False, detail=queue)
        return [message for message, _ in items]

    def depth(self, queue: str) -> int:
        """Messages currently waiting in ``queue`` (no time charged)."""
        self.declare(queue)
        return len(self._queues[queue])


class Exchange:
    """Topic fan-out: one publish copies the message to all bound queues."""

    def __init__(self, mq: MessageQueue, name: str):
        self.mq = mq
        self.name = name
        self._bindings: List[str] = []

    def bind(self, queue: str) -> None:
        self.mq.declare(queue)
        if queue not in self._bindings:
            self._bindings.append(queue)

    def unbind(self, queue: str) -> None:
        if queue in self._bindings:
            self._bindings.remove(queue)

    @property
    def bindings(self) -> List[str]:
        return list(self._bindings)

    def publish(self, message: Any, exclude: str = "") -> Generator:
        """Deliver ``message`` to every bound queue except ``exclude``."""
        tracer = self.mq.tracer
        sp = -1
        if tracer.enabled:
            sp = tracer.begin(
                "broadcast",
                self.name,
                exchange=self.name,
                queues=len(self._bindings),
            )
        mq = self.mq
        try:
            size = mq.size_of(message)  # once for the whole fan-out
            for queue in list(self._bindings):
                if queue == exclude:
                    continue
                yield from mq._charge("publish", size, inbound=True, detail=queue)
                mq._deliver(queue, (message, size))
        finally:
            if sp >= 0:
                tracer.end(sp)

    def __repr__(self) -> str:
        return f"<Exchange {self.name!r} bindings={len(self._bindings)}>"
