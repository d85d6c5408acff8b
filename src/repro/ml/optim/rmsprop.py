"""RMSProp, sparse-aware (lazy per-entry second-moment decay)."""

from __future__ import annotations

import numpy as np

from ..sparse import SparseDelta
from .base import Optimizer

__all__ = ["RMSProp"]


class RMSProp(Optimizer):
    """Lazy sparse RMSProp with optional momentum."""

    def __init__(self, lr, alpha: float = 0.99, eps: float = 1e-8,
                 momentum: float = 0.0):
        super().__init__(lr)
        if not 0 <= alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.alpha = alpha
        self.eps = eps
        self.momentum = momentum

    def _transform(self, name, tensor, grad: SparseDelta, lr, t) -> SparseDelta:
        sq = np.ravel(self._buffer("sq", name, tensor.shape))
        idx, g = grad.indices, grad.values
        sq[idx] = self.alpha * sq[idx] + (1.0 - self.alpha) * g * g
        step = g / (np.sqrt(sq[idx]) + self.eps)
        if self.momentum > 0:
            buf = np.ravel(self._buffer("momentum", name, tensor.shape))
            buf[idx] = self.momentum * buf[idx] + step
            step = buf[idx]
        return grad._with_values(-lr * step)
