"""Model parameter containers and sparse updates over them.

``ParameterSet``
    Named dense tensors (e.g. LR: ``{"w": (n,), "b": (1,)}``; PMF:
    ``{"U": (n_users, r), "M": (n_movies, r)}``) with copy/arithmetic
    helpers and a wire size for eviction-time model shipping.

``ModelUpdate``
    A named bundle of :class:`~repro.ml.sparse.SparseDelta`, one per
    parameter tensor — the unit that flows through the KV store between
    MLLess workers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from .sparse import SparseDelta

__all__ = ["ParameterSet", "ModelUpdate"]


class ParameterSet:
    """A named collection of dense parameter tensors."""

    def __init__(self, tensors: Dict[str, np.ndarray]):
        if not tensors:
            raise ValueError("a ParameterSet needs at least one tensor")
        self._tensors = {
            name: np.ascontiguousarray(t, dtype=np.float64)
            for name, t in tensors.items()
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[Tuple[str, np.ndarray]]:
        return iter(sorted(self._tensors.items()))

    @property
    def names(self):
        return sorted(self._tensors)

    @property
    def n_parameters(self) -> int:
        return sum(t.size for t in self._tensors.values())

    @property
    def nbytes(self) -> int:
        """Wire size of a full dense snapshot (eviction hand-off)."""
        return sum(t.nbytes for t in self._tensors.values())

    def copy(self) -> "ParameterSet":
        return ParameterSet({n: t.copy() for n, t in self._tensors.items()})

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        return {n: t.shape for n, t in self._tensors.items()}

    def apply(self, update: "ModelUpdate") -> None:
        """In-place add of a sparse update."""
        for name, delta in update:
            if name not in self._tensors:
                raise KeyError(f"update names unknown tensor {name!r}")
            delta.apply_to(self._tensors[name])

    def apply_many(self, updates: "Iterable[ModelUpdate]") -> None:
        """In-place add of several sparse updates, in order.

        Semantically (and bit-for-bit) identical to calling :meth:`apply`
        once per update in the given order, but fused: one concatenate +
        one ``np.add.at`` per touched tensor instead of one scatter per
        (update, tensor).  Bit-identical because ``np.add.at`` performs
        its additions element-by-element in argument order — the fused
        index stream replays exactly the sequential one.
        """
        per_tensor: Dict[str, Tuple[list, list]] = {}
        for update in updates:
            for name, delta in update:
                if name not in self._tensors:
                    raise KeyError(f"update names unknown tensor {name!r}")
                if delta.shape != self._tensors[name].shape:
                    raise ValueError(
                        f"shape mismatch: {self._tensors[name].shape} vs {delta.shape}"
                    )
                if delta.nnz:
                    idx, val = per_tensor.setdefault(name, ([], []))
                    idx.append(delta.indices)
                    val.append(delta.values)
        for name, (idx, val) in per_tensor.items():
            np.add.at(
                np.ravel(self._tensors[name]),
                idx[0] if len(idx) == 1 else np.concatenate(idx),
                val[0] if len(val) == 1 else np.concatenate(val),
            )

    def average_with(self, other: "ParameterSet") -> None:
        """In-place ``self = (self + other) / 2`` (eviction reintegration)."""
        if other.shapes() != self.shapes():
            raise ValueError("parameter shape mismatch")
        for name, tensor in self._tensors.items():
            tensor += other[name]
            tensor *= 0.5

    def __repr__(self) -> str:
        shapes = ", ".join(f"{n}{t.shape}" for n, t in self)
        return f"<ParameterSet {shapes}>"


class ModelUpdate:
    """Sparse deltas for a subset of a model's tensors."""

    def __init__(self, deltas: Dict[str, SparseDelta]):
        self._deltas = dict(deltas)
        self._nbytes: Optional[int] = None

    def __iter__(self) -> Iterator[Tuple[str, SparseDelta]]:
        return iter(sorted(self._deltas.items()))

    def __getitem__(self, name: str) -> SparseDelta:
        return self._deltas[name]

    def __contains__(self, name: str) -> bool:
        return name in self._deltas

    @property
    def names(self):
        return sorted(self._deltas)

    @property
    def nnz(self) -> int:
        return sum(d.nnz for d in self._deltas.values())

    @property
    def nbytes(self) -> int:
        """Wire size (what the KV store charges for), computed once: the
        deltas and their ``nnz`` are fixed at construction."""
        size = self._nbytes
        if size is None:
            size = self._nbytes = sum(d.nbytes for d in self._deltas.values()) or 8
        return size

    def scale(self, factor: float) -> "ModelUpdate":
        return ModelUpdate({n: d.scale(factor) for n, d in self._deltas.items()})

    def merge(self, other: "ModelUpdate") -> "ModelUpdate":
        """Entry-wise sum; tensors present in either side are kept."""
        merged = dict(self._deltas)
        for name, delta in other:
            merged[name] = merged[name].merge(delta) if name in merged else delta
        return ModelUpdate(merged)

    @classmethod
    def merge_many(cls, updates: "Iterable[ModelUpdate]") -> "ModelUpdate":
        """Sum of n updates (tensors present in any input are kept).

        One :meth:`SparseDelta.merge_many` per tensor instead of the
        O(k) pairwise fold — bit-identical to the fold, since both sum
        each index's contributions in input order (see
        :meth:`SparseDelta.merge_many`).
        """
        updates = list(updates)
        if not updates:
            return cls({})
        if len(updates) == 1:
            return updates[0]
        per_name: Dict[str, list] = {}
        for update in updates:
            for name, delta in update:
                per_name.setdefault(name, []).append(delta)
        return cls(
            {
                name: SparseDelta.merge_many(deltas, shape=deltas[0].shape)
                for name, deltas in per_name.items()
            }
        )

    def is_empty(self) -> bool:
        return self.nnz == 0

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{d.nnz}" for n, d in self)
        return f"<ModelUpdate {parts}>"
