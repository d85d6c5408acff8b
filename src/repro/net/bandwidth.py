"""Bandwidth-shared links.

A :class:`Link` models a network pipe of fixed capacity (bits/s) shared by
concurrent transfers.  Two models are provided:

``Link``
    Processor-sharing approximation: a transfer of ``n`` bytes observes a
    rate of ``capacity / active`` where ``active`` includes itself.  This
    captures the paper-relevant effect that pulling updates from Redis gets
    slower as more workers pull at once (per-step communication overhead
    grows ~linearly with the number of workers, Fig. 2a).

``Nic``
    A per-endpoint wrapper that charges both the sender's and receiver's
    NIC, used by the VM cluster's all-reduce.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Environment, Timeout
from ..trace.tracer import NO_SPAN, NULL_TRACER

__all__ = ["Link", "Nic", "transfer_time"]


def transfer_time(size_bytes: float, rate_bits_per_s: float) -> float:
    """Ideal (uncontended) time to move ``size_bytes`` over a link."""
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0, got {size_bytes}")
    if rate_bits_per_s <= 0:
        raise ValueError(f"rate must be > 0, got {rate_bits_per_s}")
    return (size_bytes * 8.0) / rate_bits_per_s


class Link:
    """A shared pipe with processor-sharing bandwidth division.

    One transfer executes, in order: join the active set; fix its duration
    once, from the number of transfers active at that instant (itself
    included — later arrivals do not slow it, hence "approximate"); open
    its span (tracing on, size > 0); one timeout; count bytes and the
    transfer; close the span and leave the active set on every exit.
    """

    def __init__(
        self,
        env: Environment,
        capacity_bps: float,
        name: str = "link",
        tracer=None,
    ):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity_bps}")
        self.env = env
        self.capacity_bps = float(capacity_bps)
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._active = 0
        self.bytes_moved = 0.0
        self.transfers = 0

    @property
    def active_transfers(self) -> int:
        return self._active

    def transfer(self, size_bytes: float) -> Generator:
        """Process generator: move ``size_bytes`` through the link.

        Usage (inside a simulation process)::

            yield from link.transfer(1_000_000)
        """
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        self._active = active = self._active + 1
        sp = NO_SPAN
        try:
            # transfer_time(size_bytes, capacity_bps / active), inline: its
            # argument checks hold here (size checked above, capacity in
            # __init__, active >= 1).
            duration = (size_bytes * 8.0) / (self.capacity_bps / active)
            if size_bytes > 0 and self.tracer.enabled:
                sp = self.tracer.begin(
                    "net.transfer",
                    self.name,
                    bytes=size_bytes,
                    active=active,
                    duration_s=duration,
                )
            yield Timeout(self.env, duration)
            self.bytes_moved += size_bytes
            self.transfers += 1
        finally:
            if sp >= 0:
                self.tracer.end(sp)
            self._active -= 1

    def __repr__(self) -> str:
        gbps = self.capacity_bps / 1e9
        return f"<Link {self.name!r} {gbps:g}Gbps active={self._active}>"


class Nic:
    """A host network interface: one ingress link and one egress link."""

    def __init__(self, env: Environment, capacity_bps: float, host: str = "host"):
        self.host = host
        self.tx = Link(env, capacity_bps, name=f"{host}.tx")
        self.rx = Link(env, capacity_bps, name=f"{host}.rx")

    def send(self, size_bytes: float) -> Generator:
        yield from self.tx.transfer(size_bytes)

    def recv(self, size_bytes: float) -> Generator:
        yield from self.rx.transfer(size_bytes)

    def __repr__(self) -> str:
        return f"<Nic {self.host!r}>"
