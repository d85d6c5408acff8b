"""Datasets: containers, synthetic generators, normalization."""

from .dataset import Dataset, DenseBatch, LRBatch, PMFBatch
from .normalize import (
    FeatureStats,
    combine_stats,
    minmax_apply,
    minmax_stats,
    normalize_dataset,
)
from .synthetic import (
    CriteoSpec,
    MLPSpec,
    MovieLensSpec,
    criteo_like,
    mlp_synth,
    movielens_like,
)

__all__ = [
    "Dataset",
    "LRBatch",
    "PMFBatch",
    "DenseBatch",
    "CriteoSpec",
    "MLPSpec",
    "MovieLensSpec",
    "criteo_like",
    "mlp_synth",
    "movielens_like",
    "FeatureStats",
    "minmax_stats",
    "minmax_apply",
    "combine_stats",
    "normalize_dataset",
]
