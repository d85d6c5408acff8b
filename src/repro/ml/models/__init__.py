"""Trainable models: logistic regression and PMF (the paper's two
workloads), and the layered MLP the pipeline stages run."""

from .base import Model
from .logistic_regression import LogisticRegression
from .mlp import LayeredMLP
from .pmf import PMF

__all__ = [
    "Model",
    "LogisticRegression",
    "PMF",
    "LayeredMLP",
]
