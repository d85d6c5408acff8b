"""Latency models for simulated service requests.

Each model turns a named RNG stream into per-request latency samples.
The object store, KV store and message queue each own one model; the
defaults in :mod:`repro.calibration` set them to the orders of
magnitude the paper reports (object storage: hundreds of milliseconds,
Redis: ~1 ms, messaging: a few ms).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
]


class LatencyModel(ABC):
    """Produces one latency sample (seconds) per request."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one latency in seconds."""

    @abstractmethod
    def mean(self) -> float:
        """Expected latency in seconds (used by capacity planners/tests)."""


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Fixed latency — handy for fully deterministic tests."""

    seconds: float

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError(f"latency must be >= 0, got {self.seconds}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds


@dataclass(frozen=True)
class LognormalLatency(LatencyModel):
    """Heavy-tailed latency, the realistic choice for cloud storage.

    Parameterized by its median and a shape sigma (of the underlying
    normal), which is how cloud-latency studies usually report tails.
    """

    median: float
    sigma: float = 0.25
    cap: float = float("inf")

    def __post_init__(self):
        if self.median <= 0:
            raise ValueError(f"median must be > 0, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # The underlying normal's mean, once per model instead of once per
        # draw.  Not a field: ==, hash and repr stay (median, sigma, cap).
        object.__setattr__(self, "_mu", np.log(self.median))

    def sample(self, rng: np.random.Generator) -> float:
        value = float(rng.lognormal(self._mu, self.sigma))
        return self.cap if self.cap < value else value

    def mean(self) -> float:
        # E[lognormal] = exp(mu + sigma^2/2); the cap is ignored here since
        # it exists only to bound pathological tail draws.
        return float(self.median * np.exp(self.sigma**2 / 2.0))
