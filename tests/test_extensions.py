"""Tests for the binary-classification metric: accuracy."""

import numpy as np

from repro.ml import accuracy


def test_accuracy():
    scores = np.array([0.2, 0.7, 0.6, 0.4])
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    assert accuracy(scores, labels) == 0.5
    assert accuracy(scores, labels, threshold=0.65) == 0.75
