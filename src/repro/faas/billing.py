"""FaaS metering: GB-second billing with 100 ms rounding.

IBM Cloud Functions bills ``memory(GB) x duration`` where duration is
rounded **up** to the next 100 ms, at a fixed $ per GB-s rate.  Table 2 of
the paper quotes 3.4e-5 $/s for a 2 GB / 1 vCPU function, i.e.
1.7e-5 $ per GB-second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

__all__ = ["ActivationRecord", "FaaSBilling"]

#: $ per GB-second, derived from Table 2 (3.4e-5 $/s at 2 GB).
DEFAULT_RATE_PER_GB_S = 1.7e-5
#: billing granularity, seconds
BILLING_QUANTUM_S = 0.100


@dataclass(frozen=True)
class ActivationRecord:
    """One completed (or failed) activation, as the meter sees it."""

    function: str
    activation_id: int
    memory_mb: int
    start: float
    end: float
    cold: bool
    ok: bool
    #: label of the platform instance that billed this activation.
    #: Activation ids are only unique *within* one platform, so a
    #: consolidated bill spanning several pools (one per memory grade,
    #: or the per-job isolation baseline) needs the pool in the identity
    #: — the cost ledger joins spans on (pool, function, activation_id).
    pool: str = "faas"
    #: identity of the (possibly warm-reused) container that ran the
    #: activation; -1 when the activation never reached dispatch
    container_id: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def billed_duration(self) -> float:
        """Duration rounded up to the billing quantum."""
        if self.duration <= 0:
            return BILLING_QUANTUM_S
        quanta = math.ceil(round(self.duration / BILLING_QUANTUM_S, 9))
        return quanta * BILLING_QUANTUM_S

    @property
    def gb_seconds(self) -> float:
        """Billed GB-seconds: memory in GB times the rounded duration."""
        return (self.memory_mb / 1024.0) * self.billed_duration

    def cost(self, rate_per_gb_s: float = DEFAULT_RATE_PER_GB_S) -> float:
        return (self.memory_mb / 1024.0) * self.billed_duration * rate_per_gb_s


@dataclass
class FaaSBilling:
    """Accumulates activation records and prices them."""

    rate_per_gb_s: float = DEFAULT_RATE_PER_GB_S
    records: List[ActivationRecord] = field(default_factory=list)

    def add(self, record: ActivationRecord) -> None:
        self.records.append(record)

    def total_cost(self) -> float:
        return sum(r.cost(self.rate_per_gb_s) for r in self.records)

    def total_gb_seconds(self) -> float:
        return sum(r.gb_seconds for r in self.records)

    def cost_up_to(self, time: float) -> float:
        """Cost accrued by simulated ``time``, counting live activations.

        An activation spanning ``time`` is charged for its elapsed portion —
        this is what a "cost so far" curve (Fig. 7) needs.

        Boundary semantics: a record with ``start >= time`` contributes
        nothing (an activation starting exactly at ``time`` has not accrued
        yet); an in-flight record (``start < time < end``) is charged as if
        it ended at ``time``, including the minimum-quantum round-up; at
        ``time == end`` the record is charged in full, so for any ``time``
        past the last end the result equals :meth:`total_cost`.
        """
        total = 0.0
        for r in self.records:
            if r.start >= time:
                continue
            end = min(r.end, time)
            partial = ActivationRecord(
                r.function, r.activation_id, r.memory_mb, r.start, end, r.cold, r.ok,
                pool=r.pool, container_id=r.container_id,
            )
            total += partial.cost(self.rate_per_gb_s)
        return total
