"""The ISP significance filter (§4.1).

Each worker accumulates its local updates per parameter while they are
non-significant.  After applying the step-``t`` update, the accumulated
update ``delta_{i,t}`` for parameter ``i`` is *significant* when::

    | delta_{i,t} / x_{i,t} | > v_t,    v_t = v / sqrt(t)

Significant entries are extracted (the full accumulated history encoded as
one sparse update), broadcast to peers, and their accumulators reset; the
rest stay local.  With ``v = 0`` every touched entry is significant, so
ISP degrades to BSP exactly (the Corollary in Appendix A) — property
tests rely on this.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Optional

import numpy as np

from ..ml.parameters import ModelUpdate, ParameterSet
from ..ml.sparse import SparseDelta, flat_nonzero

__all__ = ["threshold_at", "SignificanceFilter"]

#: guards the relative-magnitude test against division by a zero parameter
_X_EPS = 1e-8


def threshold_at(v: float, t: int) -> float:
    """The decaying significance threshold ``v_t = v / sqrt(t)``."""
    if v < 0:
        raise ValueError(f"v must be >= 0, got {v}")
    if t < 1:
        raise ValueError(f"step t must be >= 1, got {t}")
    return v / math.sqrt(t)


class SignificanceFilter:
    """Per-parameter accumulation + relative-significance extraction."""

    def __init__(self, v: float, shapes: Dict[str, tuple]):
        if v < 0:
            raise ValueError(f"v must be >= 0, got {v}")
        self.v = v
        self._shapes = dict(shapes)
        #: dense residual per tensor, allocated on the tensor's first
        #: ``add``; a tensor with no entry holds zeros (a filter that only
        #: ever passes updates through, as at v = 0, allocates none)
        self._acc: Dict[str, np.ndarray] = {}
        #: True while every accumulator is known to be all-zero, i.e.
        #: nothing is held back (always the case between steps at v = 0)
        self._nothing_held = True

    @property
    def accumulated(self) -> Dict[str, np.ndarray]:
        """Read-only view of the residual accumulators (for tests)."""
        return {
            name: self._acc[name].copy() if name in self._acc else np.zeros(shape)
            for name, shape in self._shapes.items()
        }

    def clone(self) -> "SignificanceFilter":
        """An independent copy with fresh accumulator buffers.

        All mutable state lives in ``_acc`` (subclasses only add scalar
        configuration); used by checkpoint snapshotting instead of
        ``copy.deepcopy``.  Only allocated accumulators are copied.
        """
        dup = copy.copy(self)
        dup._acc = {name: acc.copy() for name, acc in self._acc.items()}
        return dup

    def _require_known(self, update: ModelUpdate) -> None:
        for name in update.names:
            if name not in self._shapes:
                raise KeyError(f"update names unknown tensor {name!r}")

    def add(self, update: ModelUpdate) -> None:
        """Fold a local update ``u_t`` into the accumulators."""
        self._require_known(update)
        for name, delta in update:
            acc = self._acc.get(name)
            if acc is None:
                acc = self._acc[name] = np.zeros(self._shapes[name])
            delta.apply_to(acc)
            if delta.nnz:
                self._nothing_held = False

    def extract_significant(
        self, params: ParameterSet, t: int
    ) -> ModelUpdate:
        """Pull out (and reset) every significant accumulated entry.

        ``params`` is the worker's *noisy* local model after applying its
        own update — the denominator of the relative-magnitude test.
        Returns the sparse update to broadcast (possibly empty).

        The test runs element-wise over the whole tensor instead of on a
        gathered candidate set: the same IEEE operations see the same
        operands at every nonzero entry, and a zero entry gives
        ``0 > v_t``, which is False, so the selection is bit-identical.
        An unallocated accumulator is all zeros and yields nothing.
        """
        v_t = threshold_at(self.v, t)
        deltas: Dict[str, SparseDelta] = {}
        for name, shape in self._shapes.items():
            acc = self._acc.get(name)
            if acc is None:
                deltas[name] = SparseDelta.empty(shape)
                continue
            flat_acc = np.ravel(acc)
            if v_t <= 0:
                significant = flat_nonzero(flat_acc)
            else:
                ratio = np.abs(np.ravel(params[name]))
                ratio += _X_EPS
                np.divide(np.abs(flat_acc), ratio, out=ratio)
                significant = np.flatnonzero(ratio > v_t)
            deltas[name] = SparseDelta._trusted(
                significant, flat_acc[significant], acc.shape
            )
            flat_acc[significant] = 0.0
        if v_t <= 0:
            self._nothing_held = True
        return ModelUpdate(deltas)

    def _pass_through(self, update: ModelUpdate) -> Optional[ModelUpdate]:
        """What ``add`` + ``extract_significant`` would emit, or None.

        Only valid with nothing held back and ``v_t = 0``: each
        accumulator would go from zero to the update and back to zero,
        so the candidates are the update's own nonzero entries (the ISP
        = BSP corollary).  That needs matching shapes and sorted
        duplicate-free indices; for any other update this returns None
        and the caller takes the accumulator path.
        """
        self._require_known(update)
        deltas: Dict[str, SparseDelta] = {}
        for name, shape in self._shapes.items():
            if name not in update:
                deltas[name] = SparseDelta.empty(shape)
                continue
            delta = update[name]
            if delta.shape != shape or not delta.has_sorted_unique_indices:
                return None
            nonzero = delta.values != 0
            if not nonzero.all():
                delta = SparseDelta._trusted(
                    delta.indices[nonzero], delta.values[nonzero], delta.shape
                )
            deltas[name] = delta
        return ModelUpdate(deltas)

    def step(self, params: ParameterSet, update: ModelUpdate, t: int) -> ModelUpdate:
        """``add`` then ``extract_significant``.

        With nothing held back and ``v_t = 0`` the update passes straight
        through in O(nnz), never touching the dense accumulators.
        """
        if self._nothing_held and threshold_at(self.v, t) <= 0:
            passed = self._pass_through(update)
            if passed is not None:
                return passed
        self.add(update)
        return self.extract_significant(params, t)
