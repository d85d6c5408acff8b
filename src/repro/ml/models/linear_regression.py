"""Sparse linear regression — a simple convex model used by tests.

Not part of the paper's evaluation, but Theorem 1's convergence guarantee
is stated for convex objectives, and a least-squares model with a known
planted solution is the cleanest way to test it (the ISP regret-decay
property tests use this model).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.dataset import LRBatch
from ..loss import mse_loss
from ..parameters import ModelUpdate, ParameterSet
from ..sparse import SparseDelta
from .base import Model

__all__ = ["LinearRegression"]


class LinearRegression(Model):
    """Least-squares regression over sparse features (labels are targets)."""

    metric_name = "mse"

    def __init__(self, n_features: int, l2: float = 0.0):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_features = n_features
        self.l2 = l2

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        return ParameterSet({"w": np.zeros(self.n_features), "b": np.zeros(1)})

    def predict(self, params: ParameterSet, batch: LRBatch) -> np.ndarray:
        return batch.X.matvec(params["w"]) + params["b"][0]

    def loss(self, params: ParameterSet, batch: LRBatch) -> float:
        return mse_loss(self.predict(params, batch), batch.y)

    def gradient(
        self, params: ParameterSet, batch: LRBatch
    ) -> Tuple[float, ModelUpdate]:
        preds = self.predict(params, batch)
        err = preds - batch.y
        loss = float(np.mean(err**2))
        residual = 2.0 * err / batch.n
        grad_w = batch.X.rmatvec_on_support(residual)
        if self.l2 > 0 and grad_w.nnz:
            w = params["w"]
            grad_w = grad_w._with_values(
                grad_w.values + self.l2 * w[grad_w.indices]
            )
        grad_b = SparseDelta(np.array([0]), np.array([float(residual.sum())]), (1,))
        return loss, ModelUpdate({"w": grad_w, "b": grad_b})

    def sparse_step_flops(self, batch: LRBatch) -> float:
        return 4.0 * batch.X.nnz + 10.0 * batch.n

    def dense_step_flops(self, batch: LRBatch) -> float:
        return 4.0 * batch.n * self.n_features

    def dense_gradient_bytes(self) -> int:
        return (self.n_features + 1) * 8

    def sparse_entries(self, batch: LRBatch) -> int:
        return batch.X.nnz
