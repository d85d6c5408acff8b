"""Learning-rate schedules.

Theorem 1's convergence analysis assumes the step size decays as
``eta_t = eta / sqrt(t)``; :class:`InverseSqrtLR` implements exactly that.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = ["LRSchedule", "ConstantLR", "InverseSqrtLR"]


class LRSchedule(ABC):
    """Maps the (1-based) global step to a learning rate."""

    @abstractmethod
    def rate(self, t: int) -> float:
        """Learning rate at step ``t`` (t >= 1)."""

    def _check(self, t: int) -> None:
        if t < 1:
            raise ValueError(f"step t must be >= 1, got {t}")


@dataclass(frozen=True)
class ConstantLR(LRSchedule):
    eta: float

    def rate(self, t: int) -> float:
        self._check(t)
        return self.eta


@dataclass(frozen=True)
class InverseSqrtLR(LRSchedule):
    """``eta / sqrt(t)`` — the schedule assumed by Theorem 1."""

    eta: float

    def rate(self, t: int) -> float:
        self._check(t)
        return self.eta / math.sqrt(t)

