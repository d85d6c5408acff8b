"""Alternative update filters for the accumulation ablation.

The paper's ISP filter has two ingredients: a *relative-magnitude*
significance test and *accumulation* of the filtered-out remainder
(§4.1: the eventually-broadcast update "encodes the complete history of
its non-significant updates").  These variants isolate each ingredient:

``DropInsignificantFilter``
    Same relative test, **no accumulation**: insignificant entries are
    discarded outright.  Violates the conservation property that
    Theorem 1's bounded-divergence argument rests on — the ablation shows
    what that costs in convergence.

``TopKFilter``
    Accumulates like ISP but selects by **absolute** magnitude: the k
    largest accumulated entries are broadcast each step, a fixed
    compression ratio regardless of training phase.

All filters share the :class:`SignificanceFilter` interface (``step``,
``accumulated``), so workers use them interchangeably via
``JobConfig.make_filter``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..ml.parameters import ModelUpdate, ParameterSet
from ..ml.sparse import SparseDelta, flat_nonzero
from .significance import _X_EPS, SignificanceFilter, threshold_at

__all__ = ["DropInsignificantFilter", "TopKFilter"]


class DropInsignificantFilter(SignificanceFilter):
    """Relative-significance test without accumulation (lossy)."""

    def step(self, params: ParameterSet, update: ModelUpdate, t: int) -> ModelUpdate:
        """Broadcast significant entries of THIS update; drop the rest."""
        v_t = threshold_at(self.v, t)
        self._require_known(update)
        deltas: Dict[str, SparseDelta] = {}
        for name, shape in self._shapes.items():
            if name in update:
                delta = update[name]
            else:
                delta = SparseDelta.empty(shape)
            if delta.nnz == 0 or v_t <= 0:
                deltas[name] = delta
                continue
            x = np.abs(np.ravel(params[name])[delta.indices]) + _X_EPS
            keep = np.abs(delta.values) / x > v_t
            deltas[name] = SparseDelta(
                delta.indices[keep], delta.values[keep], delta.shape
            )
        return ModelUpdate(deltas)


class TopKFilter(SignificanceFilter):
    """Accumulate, then broadcast the k-largest absolute entries."""

    def __init__(self, k_fraction: float, shapes: Dict[str, tuple]):
        if not 0 < k_fraction <= 1:
            raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")
        # Reuse the accumulator machinery with a dummy threshold.
        super().__init__(0.0, shapes)
        self.k_fraction = k_fraction

    def step(self, params: ParameterSet, update: ModelUpdate, t: int) -> ModelUpdate:
        """Always through the accumulators: top-k holds entries back even
        at the dummy ``v = 0``, so the base pass-through never applies."""
        self.add(update)
        return self.extract_significant(params, t)

    def extract_significant(self, params: ParameterSet, t: int) -> ModelUpdate:
        deltas: Dict[str, SparseDelta] = {}
        for name, shape in self._shapes.items():
            acc = self._acc.get(name)
            if acc is None:
                deltas[name] = SparseDelta.empty(shape)
                continue
            flat = np.ravel(acc)
            candidate = flat_nonzero(flat)
            if len(candidate) == 0:
                deltas[name] = SparseDelta.empty(shape)
                continue
            k = max(1, int(np.ceil(self.k_fraction * len(candidate))))
            magnitudes = np.abs(flat[candidate])
            top = candidate[np.argsort(magnitudes)[-k:]]
            top.sort()
            deltas[name] = SparseDelta(top, flat[top].copy(), acc.shape)
            flat[top] = 0.0
        return ModelUpdate(deltas)
