"""Simulated IaaS substrate: VM instances and collectives."""

from .allreduce import ring_allreduce_time
from .instance import VMInstance

__all__ = ["VMInstance", "ring_allreduce_time"]
