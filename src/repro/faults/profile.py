"""Fault profiles: declarative descriptions of *what* can go wrong.

A :class:`FaultProfile` is a frozen bag of rates and magnitude ranges for
every fault model the injector knows how to apply:

* **activation crash** — an invocation fails at a sampled point after it
  starts executing (models container OOM/kill, host failure).
* **cold-start spike** — a cold dispatch occasionally takes a sampled
  multiple of the modelled latency (models image-pull storms).
* **straggler** — a worker's compute time is scaled by a sampled factor
  for the whole activation (models noisy neighbours / degraded hosts).
* **message loss / duplication** — the message queue drops or re-delivers
  a published message (models at-most-once / at-least-once brokers).
* **KV / object-store transient errors** — a storage operation fails and
  must be retried (models rate-limiting and transient 5xx responses).

Profiles are pure data: they draw nothing themselves.  All randomness
lives in :class:`~repro.faults.injector.FaultInjector`, which samples
exclusively from named :class:`~repro.sim.rand.RandomStreams` streams so
that a given seed yields a byte-identical fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["FaultProfile", "FAULT_PROFILES", "FAULT_RATE_FIELDS"]

#: the per-opportunity probability fields of :class:`FaultProfile`; a
#: profile with all of them zero can never inject a fault
FAULT_RATE_FIELDS = (
    "crash_rate",
    "coldstart_spike_rate",
    "straggler_rate",
    "message_loss_rate",
    "message_duplication_rate",
    "kv_error_rate",
    "cos_error_rate",
)


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_range(name: str, rng: Tuple[float, float], minimum: float) -> None:
    lo, hi = rng
    if lo > hi:
        raise ValueError(f"{name} range must satisfy lo <= hi, got {rng!r}")
    if lo < minimum:
        raise ValueError(f"{name} range must be >= {minimum}, got {rng!r}")


@dataclass(frozen=True)
class FaultProfile:
    """Rates and magnitudes for every supported fault model.

    All rates are per-opportunity probabilities (per activation, per
    message, per storage operation).  Magnitude ranges are uniform
    ``(lo, hi)`` bounds.  ``*_targets`` restricts activation-level faults
    to functions whose name contains one of the given substrings, so a
    profile can crash workers without ever touching the supervisor.
    """

    name: str = "custom"

    # -- activation crashes ------------------------------------------------
    crash_rate: float = 0.0
    #: seconds after the handler starts within which the crash fires
    crash_window_s: Tuple[float, float] = (0.5, 30.0)
    crash_targets: Tuple[str, ...] = ("worker",)

    # -- cold-start spikes -------------------------------------------------
    coldstart_spike_rate: float = 0.0
    coldstart_spike_factor: Tuple[float, float] = (2.0, 8.0)

    # -- stragglers --------------------------------------------------------
    straggler_rate: float = 0.0
    straggler_factor: Tuple[float, float] = (1.5, 4.0)
    straggler_targets: Tuple[str, ...] = ("worker",)

    # -- message queue -----------------------------------------------------
    message_loss_rate: float = 0.0
    message_duplication_rate: float = 0.0

    # -- storage -----------------------------------------------------------
    kv_error_rate: float = 0.0
    cos_error_rate: float = 0.0
    #: transparent retries inside the storage layer before the error
    #: surfaces to the caller as a TransientStorageError
    max_storage_retries: int = 4

    def __post_init__(self) -> None:
        for name in FAULT_RATE_FIELDS:
            _check_rate(name, getattr(self, name))
        if self.message_loss_rate + self.message_duplication_rate > 1.0:
            raise ValueError("message loss + duplication rates must sum <= 1")
        _check_range("crash_window_s", self.crash_window_s, 0.0)
        _check_range("coldstart_spike_factor", self.coldstart_spike_factor, 1.0)
        _check_range("straggler_factor", self.straggler_factor, 1.0)
        if self.max_storage_retries < 0:
            raise ValueError("max_storage_retries must be >= 0")

    def is_noop(self) -> bool:
        """True when the profile can never inject a fault."""
        return all(getattr(self, name) == 0.0 for name in FAULT_RATE_FIELDS)


#: Named presets selectable from the CLI (``--faults <name>``).
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "crash": FaultProfile(
        name="crash",
        crash_rate=0.25,
        crash_window_s=(0.5, 15.0),
    ),
    "straggler": FaultProfile(
        name="straggler",
        straggler_rate=0.25,
        straggler_factor=(1.5, 3.0),
    ),
    "coldstart": FaultProfile(
        name="coldstart",
        coldstart_spike_rate=0.5,
        coldstart_spike_factor=(2.0, 8.0),
    ),
    "lossy": FaultProfile(
        name="lossy",
        message_loss_rate=0.02,
        message_duplication_rate=0.05,
    ),
    "flaky-storage": FaultProfile(
        name="flaky-storage",
        kv_error_rate=0.02,
        cos_error_rate=0.01,
    ),
    "chaos": FaultProfile(
        name="chaos",
        crash_rate=0.2,
        crash_window_s=(0.5, 10.0),
        straggler_rate=0.15,
        straggler_factor=(1.5, 3.0),
        coldstart_spike_rate=0.25,
        coldstart_spike_factor=(2.0, 6.0),
        message_loss_rate=0.01,
        message_duplication_rate=0.01,
        kv_error_rate=0.01,
        cos_error_rate=0.005,
    ),
}
