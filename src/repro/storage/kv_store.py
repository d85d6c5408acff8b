"""Simulated low-latency key-value store (Redis stand-in).

MLLess exchanges model updates through this service: each worker PUTs its
(possibly significance-filtered) update and pulls the others' updates every
step.  The store runs on a provisioned VM (M1.2x16 in Table 2), so its cost
is part of the MLLess bill and its NIC is a genuine contention point — the
per-step communication overhead that grows with the worker count (Fig. 2a)
comes from here.

Semantics implemented: GET/SET/DELETE and EXISTS.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..net import LatencyModel, LognormalLatency
from ..sim import Environment, RandomStreams
from .base import StorageService
from .errors import KeyNotFound

__all__ = ["KVStore"]

#: Same-zone Redis round trip: median 0.9 ms.
DEFAULT_LATENCY = LognormalLatency(median=0.0009, sigma=0.25, cap=0.05)
#: The Redis VM has a 1 Gbps NIC (Table 2 / §6.1 setup).
DEFAULT_BANDWIDTH_BPS = 1e9


class KVStore(StorageService):
    """In-memory KV store with request-level timing."""

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        latency: LatencyModel = DEFAULT_LATENCY,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        name: str = "redis",
        faults=None,
        tracer=None,
    ):
        super().__init__(
            env, streams, latency, bandwidth_bps, name, faults=faults, tracer=tracer
        )
        self._data: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> Generator:
        yield from self._charge("set", self.size_of(value), inbound=True, detail=key)
        self._data[key] = value

    def get(self, key: str) -> Generator:
        if key not in self._data:
            raise KeyNotFound(key, where=self.name)
        value = self._data[key]
        yield from self._charge("get", self.size_of(value), inbound=False, detail=key)
        return value

    def get_or_none(self, key: str) -> Generator:
        """GET that returns ``None`` for a missing key instead of raising."""
        value = self._data.get(key)
        yield from self._charge("get", self.size_of(value), inbound=False, detail=key)
        return value

    def delete(self, key: str) -> Generator:
        yield from self._charge("delete", 0, inbound=True, detail=key)
        self._data.pop(key, None)

    def exists(self, key: str) -> Generator:
        yield from self._charge("exists", 8, inbound=False, detail=key)
        return key in self._data

    # -- synchronous introspection (no time charged) ----------------------
    def peek(self, key: str) -> Any:
        if key in self._data:
            return self._data[key]
        raise KeyNotFound(key, where=self.name)

    def key_count(self) -> int:
        return len(self._data)
