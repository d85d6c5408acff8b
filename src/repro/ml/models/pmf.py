"""Probabilistic matrix factorization (the paper's PMF/MovieLens workload).

Factorizes the ratings matrix ``R (n_users x n_movies)`` into
``U (n_users x r)`` and ``M (n_movies x r)`` such that ``R ~ U Mᵀ``,
by SGD on the regularized squared error (Salakhutdinov & Mnih, 2007).
The gradient of a mini-batch only touches the user/movie rows present in
the batch, so updates are naturally row-sparse — the property MLLess's
significance filter exploits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.dataset import PMFBatch
from ..loss import rmse
from ..parameters import ModelUpdate, ParameterSet
from ..sparse import SparseDelta
from .base import Model

__all__ = ["PMF"]


class PMF(Model):
    """Low-rank matrix factorization trained on (user, movie, rating) triples."""

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
        #: constant added to U·M predictions (e.g. the global mean rating)
        self.rating_offset = rating_offset

    def init_params(self, rng: np.random.Generator) -> ParameterSet:
        return ParameterSet(
            {
                "U": rng.normal(0, self.init_scale, (self.n_users, self.rank)),
                "M": rng.normal(0, self.init_scale, (self.n_movies, self.rank)),
            }
        )

    # -- forward/backward ------------------------------------------------
    def predict(self, params: ParameterSet, batch: PMFBatch) -> np.ndarray:
        U, M = params["U"], params["M"]
        return (
            np.einsum("ij,ij->i", U[batch.users], M[batch.movies])
            + self.rating_offset
        )

    def loss(self, params: ParameterSet, batch: PMFBatch) -> float:
        return rmse(self.predict(params, batch), batch.ratings)

    def gradient(
        self, params: ParameterSet, batch: PMFBatch
    ) -> Tuple[float, ModelUpdate]:
        U, M = params["U"], params["M"]
        u_rows, m_rows = batch.users, batch.movies
        Uu, Mm = U[u_rows], M[m_rows]
        err = np.einsum("ij,ij->i", Uu, Mm) + self.rating_offset - batch.ratings
        loss = float(np.sqrt(np.mean(err**2)))

        scale = 2.0 / batch.n  # d/dU of mean squared error
        g_u_rows = scale * err[:, None] * Mm + self.l2 * Uu / batch.n
        g_m_rows = scale * err[:, None] * Uu + self.l2 * Mm / batch.n

        grad_U = self._scatter_rows(u_rows, g_u_rows, U.shape)
        grad_M = self._scatter_rows(m_rows, g_m_rows, M.shape)
        return loss, ModelUpdate({"U": grad_U, "M": grad_M})

    @staticmethod
    def _scatter_rows(
        rows: np.ndarray, row_grads: np.ndarray, shape: Tuple[int, int]
    ) -> SparseDelta:
        """Sum duplicate-row gradients and emit a flat-indexed delta.

        The scatter-add runs over flat indices (NumPy's 1-D ``add.at``
        fast path); each cell still receives its contributions in batch
        order, so the sums are bit-identical to the row-wise 2-D form.
        """
        uniq, inverse = np.unique(rows, return_inverse=True)
        n_rows, rank = shape
        # uniq is sorted, so its ends bound every row index
        if len(uniq) and not 0 <= uniq[0] <= uniq[-1] < n_rows:
            raise ValueError("flat index out of range for shape")
        cols = np.arange(rank)
        acc = np.zeros(len(uniq) * rank)
        np.add.at(acc, (inverse[:, None] * rank + cols).ravel(), row_grads.ravel())
        flat_idx = (uniq.astype(np.int64)[:, None] * rank + cols).ravel()
        return SparseDelta._trusted(flat_idx, acc, shape)

    # -- cost model -------------------------------------------------------
    def sparse_step_flops(self, batch: PMFBatch) -> float:
        # Per rating: dot product + two rank-sized gradient rows (~6r).
        return 6.0 * batch.n * self.rank

    def dense_step_flops(self, batch: PMFBatch) -> float:
        # Dense frameworks pay gather/scatter + dense optimizer state over
        # the touched embedding tables; empirically ~an order of magnitude
        # over the minimal sparse kernel on CPU for high-sparsity data.
        return 60.0 * batch.n * self.rank

    def dense_gradient_bytes(self) -> int:
        return (self.n_users + self.n_movies) * self.rank * 8

    def sparse_entries(self, batch: PMFBatch) -> int:
        # Each rating gathers and scatters one user row and one movie row.
        return 2 * batch.n * self.rank
