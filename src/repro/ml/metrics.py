"""Evaluation metrics beyond training losses."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of correct binary predictions at ``threshold``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    preds = (scores >= threshold).astype(np.float64)
    return float(np.mean(preds == labels))
