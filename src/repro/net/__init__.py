"""Network models: latency distributions and bandwidth-shared links."""

from .bandwidth import Link, Nic, transfer_time
from .latency import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
)

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
    "Link",
    "Nic",
    "transfer_time",
]
