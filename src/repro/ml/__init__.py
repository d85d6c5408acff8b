"""ML substrate: sparse structures, losses, optimizers, models, data."""

from . import data, models, optim
from .loss import bce_loss, mse_loss, rmse, sigmoid
from .parameters import ModelUpdate, ParameterSet
from .sparse import CSRMatrix, SparseDelta

__all__ = [
    "CSRMatrix",
    "SparseDelta",
    "ParameterSet",
    "ModelUpdate",
    "sigmoid",
    "bce_loss",
    "mse_loss",
    "rmse",
    "data",
    "models",
    "optim",
]
