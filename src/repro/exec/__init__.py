"""Pluggable execution backends for the backend-neutral training core.

The machines in :mod:`repro.core` yield opaque service-call tokens
minted by the one :class:`~repro.exec.protocols.Services` class; a
backend supplies the handles behind it (clock + transport + spawner)
and a ``drive`` that resolves the tokens.  There are three:

* :mod:`repro.exec.sim` — the discrete-event simulator (bit-identical to
  driving the DES directly; the default everywhere).
* :mod:`repro.exec.local` — real threads, real queues, in-memory stores,
  wall-clock time; also home of the job skeleton every wall-clock
  backend shares.
* :mod:`repro.exec.procs` — one OS process per role: a control server,
  a shared-memory arena and fork choreography under the same skeleton.

Only the contract (:mod:`repro.exec.protocols`) is re-exported here; the
backends are imported explicitly (``repro.exec.sim`` /
``repro.exec.local`` / ``repro.exec.procs``) so that importing the
contract from :mod:`repro.core` never drags in a backend and its
dependencies.
"""

from .protocols import (
    Clock,
    ExecutionContext,
    FaultSink,
    Machine,
    RecoveryStats,
    ServiceCall,
    Services,
    Spawner,
    TracerLike,
)

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
