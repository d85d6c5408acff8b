"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate everything else runs on: a process-based
DES engine (:mod:`~repro.sim.core`), composite events
(:mod:`~repro.sim.events`), shared resources and buffers
(:mod:`~repro.sim.resources`), independent seeded RNG streams
(:mod:`~repro.sim.rand`) and trace collection (:mod:`~repro.sim.monitor`).
"""

from .core import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .events import AllOf, AnyOf, Condition
from .monitor import Monitor, Series, TraceEntry
from .rand import RandomStreams
from .resources import Request, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "Condition",
    "AllOf",
    "AnyOf",
    "Resource",
    "Request",
    "Store",
    "RandomStreams",
    "Monitor",
    "Series",
    "TraceEntry",
]
