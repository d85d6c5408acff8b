"""Sparse logistic regression (the paper's LR/Criteo workload).

Binary classifier over hashed sparse features with optional L2
regularization applied lazily on the touched coordinates (the only
affordable way with sparse data — and one of the "subtle model artifacts"
the paper's sanity check controls for across systems).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.dataset import LRBatch
from ..loss import bce_grad_residual, bce_loss, sigmoid
from ..parameters import ModelUpdate, ParameterSet
from ..sparse import SparseDelta
from .base import Model

__all__ = ["LogisticRegression"]


class LogisticRegression(Model):
    """L2-regularized logistic regression over sparse features."""

    metric_name = "bce"

    def __init__(self, n_features: int, l2: float = 0.0, init_scale: float = 0.0):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_features = n_features
        self.l2 = l2
        self.init_scale = init_scale

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        if self.init_scale > 0:
            w = rng.normal(0.0, self.init_scale, size=self.n_features)
        else:
            w = np.zeros(self.n_features)
        return ParameterSet({"w": w, "b": np.zeros(1)})

    # -- forward/backward ------------------------------------------------
    def _probs(self, params: ParameterSet, batch: LRBatch) -> np.ndarray:
        return sigmoid(batch.X.matvec(params["w"]) + params["b"][0])

    def predict(self, params: ParameterSet, batch: LRBatch) -> np.ndarray:
        """Predicted positive-class probabilities."""
        return self._probs(params, batch)

    def loss(self, params: ParameterSet, batch: LRBatch) -> float:
        return bce_loss(self._probs(params, batch), batch.y)

    def gradient(
        self, params: ParameterSet, batch: LRBatch
    ) -> Tuple[float, ModelUpdate]:
        probs = self._probs(params, batch)
        loss = bce_loss(probs, batch.y)
        residual = bce_grad_residual(probs, batch.y) / batch.n
        grad_w = batch.X.rmatvec_on_support(residual)
        if self.l2 > 0 and grad_w.nnz:
            # Lazy L2: regularize only the touched coordinates.
            w = params["w"]
            grad_w = grad_w._with_values(
                grad_w.values + self.l2 * w[grad_w.indices]
            )
        grad_b = SparseDelta(
            np.array([0]), np.array([float(residual.sum())]), (1,)
        )
        return loss, ModelUpdate({"w": grad_w, "b": grad_b})

    # -- cost model -------------------------------------------------------
    def sparse_step_flops(self, batch: LRBatch) -> float:
        # matvec + rmatvec touch each nonzero twice; sigmoid/loss ~ O(n).
        return 4.0 * batch.X.nnz + 20.0 * batch.n

    def dense_step_flops(self, batch: LRBatch) -> float:
        # Dense X @ w and X.T @ r over the full feature dimension.
        return 4.0 * batch.n * self.n_features

    def dense_gradient_bytes(self) -> int:
        return (self.n_features + 1) * 8

    def sparse_entries(self, batch: LRBatch) -> int:
        return batch.X.nnz
