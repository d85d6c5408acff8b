"""Common machinery for simulated storage services.

Every service (object store, KV store, message queue) charges a request
through one generator, :meth:`StorageService._charge`, which runs in this
order (pinned by ``tests/property/test_request_equivalence.py``):

1. open the request's tracer span (tracing on only);
2. retry injected transient errors (fault injector attached only): per
   failed attempt a latency round-trip, then a back-off;
3. count the request; one timeout of a latency drawn from the service's
   :class:`~repro.net.LatencyModel` (one RNG draw);
4. one timeout for the payload bytes over the service's shared
   :class:`~repro.net.Link` (so concurrent requests contend);
5. byte and busy-time metrics; the span closes on every exit.

Callers size the payload once (:meth:`StorageService.size_of`).  Subclasses
implement the data semantics; this module owns timing and accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator

import numpy as np

from ..net import LatencyModel, Link
from ..sim import Environment, RandomStreams, Timeout
from ..trace.tracer import NO_SPAN, NULL_TRACER
from .errors import TransientStorageError
from .sizing import payload_size

__all__ = ["ServiceMetrics", "StorageService"]

#: Deterministic client-side retry backoff for injected transient errors.
_RETRY_BACKOFF_BASE_S = 0.05
_RETRY_BACKOFF_CAP_S = 1.0


@dataclass
class ServiceMetrics:
    """Request counts and byte volumes per operation type."""

    requests: Dict[str, int] = field(default_factory=dict)
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    busy_time: float = 0.0

    def count(self, op: str) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    def summary(self) -> Dict[str, float]:
        return {
            "requests": self.total_requests,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "busy_time": self.busy_time,
        }


class StorageService:
    """Base class: request timing, contention and metrics."""

    #: span category prefix for traced requests ("storage.get", "mq.publish", …)
    trace_kind = "storage"

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        latency: LatencyModel,
        bandwidth_bps: float,
        name: str,
        faults=None,
        tracer=None,
    ):
        self.env = env
        self.name = name
        self.latency = latency
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(env)
        self.link = Link(env, bandwidth_bps, name=f"{name}.link", tracer=self.tracer)
        self.metrics = ServiceMetrics()
        self.faults = faults
        self._rng: np.random.Generator = streams.stream(f"storage.{name}")

    def _charge(
        self, op: str, payload_bytes: float, inbound: bool, detail=None
    ) -> Generator:
        """Process generator: one request, in the module docstring's order."""
        tracer = self.tracer
        sp = NO_SPAN
        if tracer.enabled:
            attrs = {"service": self.name, "bytes": payload_bytes}
            if detail is not None:
                attrs["key"] = detail
            sp = tracer.begin(f"{self.trace_kind}.{op}", op, **attrs)
        try:
            if self.faults is not None:
                yield from self._injected_failures(op)
            env = self.env
            metrics = self.metrics
            # env._now, not env.now: the property is a Python frame per read.
            start = env._now
            metrics.requests[op] = metrics.requests.get(op, 0) + 1
            yield Timeout(env, self.latency.sample(self._rng))
            yield from self.link.transfer(payload_bytes)
            if inbound:
                metrics.bytes_in += payload_bytes
            else:
                metrics.bytes_out += payload_bytes
            metrics.busy_time += env._now - start
        finally:
            if sp >= 0:
                tracer.end(sp)

    def _injected_failures(self, op: str) -> Generator:
        """Client-side retries of injected transient errors (step 2)."""
        faults = self.faults
        attempts = 0
        while faults.storage_should_fail(self.name):
            attempts += 1
            self.metrics.count(f"{op}.error")
            # The failed attempt still costs a round-trip.
            yield self.env.timeout(self.latency.sample(self._rng))
            if attempts > faults.profile.max_storage_retries:
                raise TransientStorageError(self.name, op, attempts)
            faults.stats.note_recovered("storage_retry")
            backoff = min(
                _RETRY_BACKOFF_BASE_S * 2 ** (attempts - 1),
                _RETRY_BACKOFF_CAP_S,
            )
            yield self.env.timeout(backoff)

    @staticmethod
    def size_of(obj) -> int:
        """Wire size of a payload (see :func:`payload_size`)."""
        return payload_size(obj)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
