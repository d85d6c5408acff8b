"""Adam, sparse-aware.

The paper's LR/Criteo job trains with Adam (Table 1).  The optimizer
keeps dense moment buffers but only updates the entries touched by the
sparse gradient ("lazy" updates), with bias correction driven by the
global step — the standard serverless/embedding-table approximation.
"""

from __future__ import annotations

import numpy as np

from ..sparse import SparseDelta
from .base import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Lazy sparse Adam."""

    def __init__(
        self,
        lr,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(lr)
        if not 0 <= beta1 < 1:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0 <= beta2 < 1:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _transform(self, name, tensor, grad: SparseDelta, lr, t) -> SparseDelta:
        m = np.ravel(self._buffer("m", name, tensor.shape))
        v = np.ravel(self._buffer("v", name, tensor.shape))
        idx, g = grad.indices, grad.values
        m[idx] = self.beta1 * m[idx] + (1.0 - self.beta1) * g
        v[idx] = self.beta2 * v[idx] + (1.0 - self.beta2) * g * g
        m_hat = m[idx] / (1.0 - self.beta1**t)
        v_hat = v[idx] / (1.0 - self.beta2**t)
        step = m_hat / (np.sqrt(v_hat) + self.eps)
        return grad._with_values(-lr * step)

