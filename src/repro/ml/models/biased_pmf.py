"""PMF with user/movie bias terms.

An extension of the paper's PMF: predictions add per-user and per-movie
scalar biases on top of the latent dot product — the standard improvement
for ratings data (and our synthetic MovieLens generator plants biases, so
this model genuinely fits it better than plain PMF; see
``tests/test_extensions.py``).  Updates stay row-sparse, so ISP applies
unchanged.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.dataset import PMFBatch
from ..parameters import ModelUpdate, ParameterSet
from ..sparse import SparseDelta
from .base import Model
from .pmf import PMF

__all__ = ["BiasedPMF"]


class BiasedPMF(Model):
    """Low-rank factorization plus user/movie biases."""

    metric_name = "rmse"

    def __init__(
        self,
        n_users: int,
        n_movies: int,
        rank: int = 20,
        l2: float = 0.01,
        init_scale: float = 0.1,
        rating_offset: float = 0.0,
    ):
        if min(n_users, n_movies, rank) < 1:
            raise ValueError("n_users, n_movies and rank must all be >= 1")
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.n_users = n_users
        self.n_movies = n_movies
        self.rank = rank
        self.l2 = l2
        self.init_scale = init_scale
        self.rating_offset = rating_offset

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        return ParameterSet(
            {
                "U": rng.normal(0, self.init_scale, (self.n_users, self.rank)),
                "M": rng.normal(0, self.init_scale, (self.n_movies, self.rank)),
                "bu": np.zeros(self.n_users),
                "bm": np.zeros(self.n_movies),
            }
        )

    def predict(self, params: ParameterSet, batch: PMFBatch) -> np.ndarray:
        U, M = params["U"], params["M"]
        return (
            np.einsum("ij,ij->i", U[batch.users], M[batch.movies])
            + params["bu"][batch.users]
            + params["bm"][batch.movies]
            + self.rating_offset
        )

    def loss(self, params: ParameterSet, batch: PMFBatch) -> float:
        err = self.predict(params, batch) - batch.ratings
        return float(np.sqrt(np.mean(err**2)))

    def gradient(
        self, params: ParameterSet, batch: PMFBatch
    ) -> Tuple[float, ModelUpdate]:
        U, M = params["U"], params["M"]
        u_rows, m_rows = batch.users, batch.movies
        Uu, Mm = U[u_rows], M[m_rows]
        err = (
            np.einsum("ij,ij->i", Uu, Mm)
            + params["bu"][u_rows]
            + params["bm"][m_rows]
            + self.rating_offset
            - batch.ratings
        )
        loss = float(np.sqrt(np.mean(err**2)))
        scale = 2.0 / batch.n

        g_u_rows = scale * err[:, None] * Mm + self.l2 * Uu / batch.n
        g_m_rows = scale * err[:, None] * Uu + self.l2 * Mm / batch.n
        grad_U = PMF._scatter_rows(u_rows, g_u_rows, U.shape)
        grad_M = PMF._scatter_rows(m_rows, g_m_rows, M.shape)
        grad_bu = self._scatter_scalars(
            u_rows, scale * err + self.l2 * params["bu"][u_rows] / batch.n,
            self.n_users,
        )
        grad_bm = self._scatter_scalars(
            m_rows, scale * err + self.l2 * params["bm"][m_rows] / batch.n,
            self.n_movies,
        )
        return loss, ModelUpdate(
            {"U": grad_U, "M": grad_M, "bu": grad_bu, "bm": grad_bm}
        )

    @staticmethod
    def _scatter_scalars(rows, grads, size) -> SparseDelta:
        uniq, inverse = np.unique(rows, return_inverse=True)
        acc = np.bincount(inverse, weights=grads, minlength=len(uniq))
        return SparseDelta(uniq.astype(np.int64), acc, (size,))

    # -- cost model -------------------------------------------------------
    def sparse_step_flops(self, batch: PMFBatch) -> float:
        return 6.0 * batch.n * self.rank + 8.0 * batch.n

    def dense_step_flops(self, batch: PMFBatch) -> float:
        return 60.0 * batch.n * self.rank + 40.0 * batch.n

    def dense_gradient_bytes(self) -> int:
        return ((self.n_users + self.n_movies) * (self.rank + 1)) * 8

    def sparse_entries(self, batch: PMFBatch) -> int:
        return 2 * batch.n * (self.rank + 1)
