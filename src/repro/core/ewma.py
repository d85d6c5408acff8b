"""Exponentially weighted moving average filtering.

The scale-in scheduler always smooths raw loss values with an EWMA before
curve fitting "to remove outliers" (§4.2).  Both an online filter (used by
the supervisor as losses stream in) and a batch helper are provided.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

__all__ = ["EWMAFilter", "ewma"]


class EWMAFilter:
    """Online EWMA: ``s_t = alpha * x_t + (1 - alpha) * s_{t-1}``."""

    def __init__(self, alpha: float = 0.3):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._state: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """Current smoothed value (None before the first update)."""
        return self._state

    def update(self, x: float) -> float:
        x = float(x)
        if self._state is None:
            self._state = x
        elif x != self._state:
            # A repeated value is its own average; the weighted sum could
            # round away from it (``0.5 * 5e-324`` rounds to zero).
            self._state = self.alpha * x + (1.0 - self.alpha) * self._state
        return self._state

    def reset(self) -> None:
        self._state = None


def ewma(values: Iterable[float], alpha: float = 0.3) -> np.ndarray:
    """Batch EWMA of a sequence; returns an array of the same length."""
    filt = EWMAFilter(alpha)
    out: List[float] = [filt.update(v) for v in values]
    return np.asarray(out)
