"""SGD and momentum variants.

``SGD``
    Plain ``u = -lr * g``.

``MomentumSGD``
    Heavy-ball or Nesterov momentum with lazily-updated velocity buffers.
    The paper's PMF jobs use *SGD + Nesterov momentum* (Table 1).
"""

from __future__ import annotations

import numpy as np

from ..sparse import SparseDelta
from .base import Optimizer

__all__ = ["SGD", "MomentumSGD"]


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _transform(self, name, tensor, grad: SparseDelta, lr, t) -> SparseDelta:
        return grad.scale(-lr)


class MomentumSGD(Optimizer):
    """SGD with (optionally Nesterov) momentum, sparse-aware.

    Velocity follows the PyTorch convention ``v = mu * v + g``; the update
    is ``-lr * v`` (heavy ball) or ``-lr * (g + mu * v)`` (Nesterov).
    Only entries touched by the gradient are decayed and updated — the
    standard lazy trick for sparse training.
    """

    def __init__(self, lr, momentum: float = 0.9, nesterov: bool = False):
        super().__init__(lr)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.nesterov = nesterov

    def _transform(self, name, tensor, grad: SparseDelta, lr, t) -> SparseDelta:
        velocity = self._buffer("velocity", name, tensor.shape)
        flat_v = np.ravel(velocity)
        idx = grad.indices
        flat_v[idx] = self.momentum * flat_v[idx] + grad.values
        if self.nesterov:
            step = grad.values + self.momentum * flat_v[idx]
        else:
            step = flat_v[idx]
        return grad._with_values(-lr * step)
