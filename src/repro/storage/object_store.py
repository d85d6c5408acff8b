"""Simulated object storage (IBM Cloud Object Storage stand-in).

Buckets of immutable objects with GET/PUT/LIST/DELETE, high per-request
latency (hundreds of milliseconds by default) and high aggregate
throughput.  MLLess stores dataset mini-batches here; the PyWren baseline
additionally funnels *all* worker communication through it, which is what
makes it so slow in Fig. 6.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..net import LatencyModel, LognormalLatency
from ..sim import Environment, RandomStreams
from .base import StorageService
from .errors import BucketNotFound, KeyNotFound

__all__ = ["ObjectStore"]

#: Default request latency: median 100 ms with a heavy tail — §2 of the
#: paper: a trip through shared external storage "contributes significant
#: extra latency, often hundreds of milliseconds".  Large objects pay
#: bandwidth on top.
DEFAULT_LATENCY = LognormalLatency(median=0.100, sigma=0.40, cap=2.0)
#: Default aggregate throughput: object stores scale out, so the service
#: link is wide (8 Gbps) and per-worker NICs are usually the bottleneck.
DEFAULT_BANDWIDTH_BPS = 8e9


class ObjectStore(StorageService):
    """Bucketed object storage with request-level timing."""

    def __init__(
        self,
        env: Environment,
        streams: RandomStreams,
        latency: LatencyModel = DEFAULT_LATENCY,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        name: str = "cos",
        faults=None,
        tracer=None,
    ):
        super().__init__(
            env, streams, latency, bandwidth_bps, name, faults=faults, tracer=tracer
        )
        self._buckets: Dict[str, Dict[str, Any]] = {}

    # -- management (instantaneous control-plane calls) -----------------
    def create_bucket(self, bucket: str) -> None:
        self._buckets.setdefault(bucket, {})

    def has_bucket(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _bucket(self, bucket: str) -> Dict[str, Any]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise BucketNotFound(bucket) from None

    # -- data plane (simulation process generators) ----------------------
    def put(self, bucket: str, key: str, obj: Any) -> Generator:
        """Store ``obj`` under ``bucket/key``.  Yields until durable."""
        objects = self._bucket(bucket)
        yield from self._charge(
            "put", self.size_of(obj), inbound=True, detail=f"{bucket}/{key}"
        )
        objects[key] = obj

    def get(self, bucket: str, key: str) -> Generator:
        """Fetch the object at ``bucket/key``; generator returns it."""
        objects = self._bucket(bucket)
        if key not in objects:
            raise KeyNotFound(key, where=f"bucket {bucket!r}")
        obj = objects[key]
        yield from self._charge(
            "get", self.size_of(obj), inbound=False, detail=f"{bucket}/{key}"
        )
        return obj

    def delete(self, bucket: str, key: str) -> Generator:
        """Remove ``bucket/key`` (idempotent, as in S3/COS)."""
        objects = self._bucket(bucket)
        yield from self._charge(
            "delete", 0, inbound=True, detail=f"{bucket}/{key}"
        )
        objects.pop(key, None)

    # -- synchronous introspection (tests / setup, no time charged) -----
    def peek(self, bucket: str, key: str) -> Any:
        """Read an object without advancing simulated time."""
        objects = self._bucket(bucket)
        if key not in objects:
            raise KeyNotFound(key, where=f"bucket {bucket!r}")
        return objects[key]

    def preload(self, bucket: str, key: str, obj: Any) -> None:
        """Install an object without charging time (dataset staging)."""
        self.create_bucket(bucket)
        self._buckets[bucket][key] = obj

    def object_count(self, bucket: str) -> int:
        return len(self._bucket(bucket))
