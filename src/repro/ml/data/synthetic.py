"""Synthetic dataset generators standing in for Criteo and MovieLens.

The real datasets are not available offline, so the generators plant a
ground-truth model and sample from it, preserving the two properties the
paper's evaluation exercises: **high sparsity** and **fast convergence**.

``criteo_like``
    Click-through data: each sample has a few dense numeric features plus
    a fixed number of active hashed categorical columns (one per
    categorical field, like Criteo's 26), labels drawn from a planted
    logistic model.  Density matches Criteo's regime (~tens of nonzeros
    out of 1e5 columns).

``movielens_like``
    Ratings sampled from a planted low-rank matrix with user/movie biases
    and Gaussian noise, clipped to the 0.5–5 star range.  Popularity is
    Zipf-distributed so some movies are rated far more than others, as in
    MovieLens.

``mlp_synth``
    Dense regression data from a planted *teacher* MLP with Gaussian
    observation noise — the layered-MLP workload that exercises dense
    data parallelism and pipeline-parallel stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..sparse import CSRMatrix
from .dataset import Dataset, DenseBatch, LRBatch, PMFBatch

__all__ = [
    "criteo_like",
    "movielens_like",
    "mlp_synth",
    "CriteoSpec",
    "MLPSpec",
    "MovieLensSpec",
]


def _check_at_least(spec, floor, *fields: str) -> None:
    for name in fields:
        value = getattr(spec, name)
        if not value >= floor:
            raise ValueError(f"{name} must be >= {floor}, got {value!r}")


@dataclass(frozen=True)
class CriteoSpec:
    """Shape of a Criteo-like dataset (defaults scaled for laptop runs)."""

    n_samples: int = 100_000
    n_numeric: int = 13
    n_categorical: int = 26
    n_hash_buckets: int = 20_000
    batch_size: int = 6_250
    positive_rate: float = 0.25
    label_noise: float = 0.05
    #: Zipf exponent of categorical-value popularity.  Real CTR data is
    #: heavily skewed; the skew concentrates each batch's nonzeros on few
    #: hot columns — the "intrinsic filter" that makes LR updates small
    #: (§6.2's explanation for ISP's modest gains on LR).
    zipf_a: float = 1.4

    def __post_init__(self):
        _check_at_least(
            self, 1, "n_samples", "n_categorical", "n_hash_buckets", "batch_size"
        )
        _check_at_least(self, 0, "n_numeric")
        for name in ("positive_rate", "label_noise"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _planted_logits(
    numeric: np.ndarray, w_numeric: np.ndarray, weights: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """``numeric[i] @ w_numeric + weights[i][keep[i]].sum()`` for every row.

    A label thresholds a uniform draw on this value, so both terms keep
    the per-row float association: one BLAS dot per row (gemv and einsum
    round differently), and NumPy's pairwise sum over exactly the kept
    weights -- taken per group of rows that keep equally many, because
    zero-padding to a common width would re-associate the sum.
    """
    logits = np.array([row @ w_numeric for row in numeric])
    n_terms = keep.sum(axis=1)
    for k in np.unique(n_terms):
        rows = np.flatnonzero(n_terms == k)
        logits[rows] += weights[rows][keep[rows]].reshape(len(rows), k).sum(axis=1)
    return logits


def criteo_like(spec: CriteoSpec = CriteoSpec(), seed: int = 0) -> Dataset:
    """Sparse CTR dataset from a planted logistic model.

    Each sample's nonzeros: ``n_numeric`` dense columns (min-max scaled to
    [0, 1]) followed by ``n_categorical`` one-hot hashed columns.  The
    label is Bernoulli from a planted weight vector, with ``label_noise``
    flips, and the intercept is tuned to hit ``positive_rate``.

    The RNG draw order is the dataset's identity.  Before the batches:
    ``normal``, ``choice(replace=False)``, ``normal``, then one
    ``permutation`` per field.  Per batch: ``uniform(0, 1, (n, n_numeric))``,
    one ``random(n)`` per field in field order, ``uniform(size=n)`` for the
    labels, ``uniform(size=n)`` for the flips.  The intercept comes from
    the first batch only.
    """
    rng = np.random.default_rng(seed)
    n_numeric, n_buckets = spec.n_numeric, spec.n_hash_buckets
    n_features = n_numeric + n_buckets
    # Planted model: numeric weights strong, categorical weights sparse.
    w_true = np.zeros(n_features)
    w_true[:n_numeric] = rng.normal(0, 1.5, n_numeric)
    hot = rng.choice(n_buckets, size=n_buckets // 5, replace=False)
    w_true[n_numeric + hot] = rng.normal(0, 1.0, len(hot))

    # Zipf popularity over categorical values, independently permuted per
    # field so fields do not share hot buckets.  Inverse-CDF sampling is
    # what ``Generator.choice(p=...)`` does, minus rebuilding the CDF for
    # every field of every batch.
    ranks = np.arange(1, n_buckets + 1, dtype=np.float64)
    popularity = ranks ** (-spec.zipf_a)
    popularity /= popularity.sum()
    cdf = popularity.cumsum()
    cdf /= cdf[-1]
    field_perms = [rng.permutation(n_buckets) for _ in range(spec.n_categorical)]

    batches: List[LRBatch] = []
    intercept = None
    for start in range(0, spec.n_samples, spec.batch_size):
        n = min(spec.batch_size, spec.n_samples - start)
        numeric = rng.uniform(0.0, 1.0, (n, n_numeric))
        cats = np.column_stack(
            [perm[cdf.searchsorted(rng.random(n), side="right")]
             for perm in field_perms]
        )
        # A row keeps each bucket once (fields collide), ascending.
        cats.sort(axis=1)
        fresh = np.ones(cats.shape, dtype=bool)
        fresh[:, 1:] = cats[:, 1:] != cats[:, :-1]
        cols = np.hstack([np.tile(np.arange(n_numeric), (n, 1)), n_numeric + cats])
        vals = np.hstack([numeric, np.ones(cats.shape)])
        keep = np.hstack([np.ones(numeric.shape, dtype=bool), fresh])
        X = CSRMatrix(
            np.concatenate([[0], keep.sum(axis=1).cumsum()]),
            cols[keep],  # row-major selection is CSR order
            vals[keep],
            (n, n_features),
        )
        logits = _planted_logits(
            numeric, w_true[:n_numeric], w_true[n_numeric + cats], fresh
        )
        if intercept is None:
            # Shift logits so the marginal positive rate is as requested.
            intercept = float(np.quantile(logits, 1.0 - spec.positive_rate))
        probs = 1.0 / (1.0 + np.exp(-(logits - intercept)))
        y = (rng.uniform(size=n) < probs).astype(np.float64)
        flips = rng.uniform(size=n) < spec.label_noise
        y[flips] = 1.0 - y[flips]
        batches.append(LRBatch(X, y))
    return Dataset(batches, name=f"criteo-like-{spec.n_samples}")


@dataclass(frozen=True)
class MLPSpec:
    """Shape of a dense regression dataset for the layered-MLP workload."""

    n_samples: int = 8_000
    n_features: int = 32
    #: hidden widths of the planted teacher network
    hidden: Tuple[int, ...] = (24, 24)
    n_outputs: int = 1
    batch_size: int = 400
    noise: float = 0.1

    def __post_init__(self):
        _check_at_least(self, 1, "n_samples", "n_features", "n_outputs", "batch_size")
        _check_at_least(self, 0, "noise")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden!r}")


def mlp_synth(spec: MLPSpec = MLPSpec(), seed: int = 0) -> Dataset:
    """Dense regression data from a planted tanh teacher network.

    Inputs are standard normal; targets are the teacher's forward pass
    plus ``noise``-scaled Gaussian observation noise.  A student MLP of
    comparable capacity drives the MSE down fast, which keeps the
    pipeline and data-parallel convergence runs short.
    """
    rng = np.random.default_rng(seed)
    sizes = [spec.n_features, *spec.hidden, spec.n_outputs]
    weights = [
        rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=(sizes[i], sizes[i + 1]))
        for i in range(len(sizes) - 1)
    ]
    biases = [rng.normal(0.0, 0.1, size=sizes[i + 1]) for i in range(len(sizes) - 1)]

    x = rng.normal(0.0, 1.0, (spec.n_samples, spec.n_features))
    a = x
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        a = np.tanh(z) if i < len(weights) - 1 else z
    y = a + rng.normal(0.0, spec.noise, a.shape)

    batches: List[DenseBatch] = []
    for start in range(0, spec.n_samples, spec.batch_size):
        stop = min(start + spec.batch_size, spec.n_samples)
        batches.append(DenseBatch(x[start:stop], y[start:stop]))
    return Dataset(batches, name=f"mlp-synth-{spec.n_samples}")


@dataclass(frozen=True)
class MovieLensSpec:
    """Shape of a MovieLens-like dataset (defaults scaled for laptop runs)."""

    n_users: int = 1_200
    n_movies: int = 800
    n_ratings: int = 120_000
    rank: int = 8
    batch_size: int = 4_000
    noise: float = 0.4
    zipf_a: float = 1.3

    def __post_init__(self):
        _check_at_least(
            self, 1, "n_users", "n_movies", "n_ratings", "rank", "batch_size"
        )
        _check_at_least(self, 0, "noise")


def movielens_like(
    spec: MovieLensSpec = MovieLensSpec(), seed: int = 0
) -> Dataset:
    """Ratings from a planted low-rank + biases model, Zipf popularity."""
    rng = np.random.default_rng(seed)
    U = rng.normal(0, 0.5, (spec.n_users, spec.rank))
    M = rng.normal(0, 0.5, (spec.n_movies, spec.rank))
    user_bias = rng.normal(0, 0.3, spec.n_users)
    movie_bias = rng.normal(0, 0.3, spec.n_movies)

    # Zipf-ish popularity over movies; uniform over users.
    ranks = np.arange(1, spec.n_movies + 1, dtype=np.float64)
    pop = ranks ** (-spec.zipf_a)
    pop /= pop.sum()
    movie_order = rng.permutation(spec.n_movies)

    users = rng.integers(0, spec.n_users, spec.n_ratings).astype(np.int32)
    movies = movie_order[
        rng.choice(spec.n_movies, size=spec.n_ratings, p=pop)
    ].astype(np.int32)
    raw = (
        3.5
        + np.einsum("ij,ij->i", U[users], M[movies])
        + user_bias[users]
        + movie_bias[movies]
        + rng.normal(0, spec.noise, spec.n_ratings)
    )
    ratings = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0)

    batches: List[PMFBatch] = []
    for start in range(0, spec.n_ratings, spec.batch_size):
        stop = min(start + spec.batch_size, spec.n_ratings)
        batches.append(
            PMFBatch(users[start:stop], movies[start:stop], ratings[start:stop])
        )
    return Dataset(batches, name=f"movielens-like-{spec.n_ratings}")
