"""Sparse data structures for training.

The paper's prototype reimplements models, optimizers and **sparse data
structures** in Cython because dense handling of highly sparse data (what
PyTorch does here) wastes both compute and network.  This module provides
the two structures everything else uses:

``CSRMatrix``
    Compressed sparse row feature matrix with the two kernels SGD needs:
    ``matvec`` (X @ w) and ``rmatvec_on_support`` (Xᵀ r restricted to the
    touched columns, returned sparse).

``SparseDelta``
    A flat-indexed sparse increment over one parameter tensor — the wire
    format of MLLess model updates.  Supports accumulation, scaling and
    in-place application to a dense array, and knows its wire size.

Hot-path contracts (see DESIGN.md "Hot-path performance"):

* ``CSRMatrix`` instances are **immutable once constructed** — batches are
  staged once and re-read every epoch — so per-matrix derived state
  (``matvec`` row ids, ``rmatvec_on_support`` column support, the SciPy
  matvec handle) is computed once and cached on the instance.
* ``SparseDelta`` indices produced by this module (and by every gradient
  / filter path in the repo) are **sorted and duplicate-free**; the
  constructor verifies cheap invariants and the sortedness flag is
  tracked so kernels can rely on it.
* Every fast path below is bit-identical to the naive formulation it
  replaces — property tests in ``tests/property`` enforce this, and the
  SciPy matvec handle self-verifies against the numpy kernel on first
  use, falling back if the platform's BLAS-free CSR loop ever disagrees.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRMatrix", "SparseDelta", "flat_nonzero"]

#: wire bytes per stored entry: 4-byte index + 8-byte value
_INDEX_BYTES = 4
_VALUE_BYTES = 8


def flat_nonzero(flat: np.ndarray) -> np.ndarray:
    """Ascending indices of the nonzero entries of a 1-D float array.

    Written as ``np.flatnonzero(flat != 0)`` because NumPy's nonzero scan
    of a float64 array is several times slower than the comparison plus
    the scan of the boolean mask (573 vs 84 us for 64k elements on NumPy
    2.4).  Both select the same entries: NaN is truthy and ``NaN != 0``
    is True; ``-0.0`` is falsy and ``-0.0 != 0`` is False.
    """
    return np.flatnonzero(flat != 0)


def _scipy_csr():
    """``scipy.sparse.csr_matrix``, or None without SciPy.  Imported on call, never
    with the package; every call after the first is a ``sys.modules`` hit."""
    try:
        from scipy.sparse import csr_matrix
    except ImportError:
        return None
    return csr_matrix


class CSRMatrix:
    """Compressed sparse row matrix (float64 values, int32 indices).

    Instances are immutable: the index/data arrays must not be written to
    after construction, which is what makes the per-instance kernel
    caches (``_support``, ``_spmv``) safe — there is no
    cache-invalidation story because there is nothing to invalidate.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_support", "_spmv")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._support: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: SciPy CSR handle: None = not built yet, False = unavailable or
        #: failed the bit-identity self-check, else the scipy.sparse matrix
        self._spmv = None
        self._validate()
        # A dataset is built in set-up: resolve the import there, so the
        # first matvec of a timed run builds its handle and nothing more.
        _scipy_csr()

    @classmethod
    def _trusted(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Internal constructor for arrays already known to be valid.

        Skips the O(nnz) ``_validate`` scan; callers guarantee the CSR
        invariants hold (e.g. :meth:`row_slice` of an already-validated
        matrix).  Dtypes must already match the public constructor's.
        """
        obj = cls.__new__(cls)
        obj.indptr = indptr
        obj.indices = indices
        obj.data = data
        obj.shape = (int(shape[0]), int(shape[1]))
        obj._support = None
        obj._spmv = None
        return obj

    def _validate(self) -> None:
        rows, cols = self.shape
        if len(self.indptr) != rows + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != rows+1 ({rows + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data length mismatch")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= cols
        ):
            raise ValueError("column index out of range")

    # -- construction ----------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[np.ndarray, np.ndarray]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Build from an iterable of (col_indices, values) per row."""
        indptr: List[int] = [0]
        all_idx: List[np.ndarray] = []
        all_val: List[np.ndarray] = []
        for cols, vals in rows:
            cols = np.asarray(cols, dtype=np.int32)
            vals = np.asarray(vals, dtype=np.float64)
            if len(cols) != len(vals):
                raise ValueError("row indices/values length mismatch")
            all_idx.append(cols)
            all_val.append(vals)
            indptr.append(indptr[-1] + len(cols))
        indices = np.concatenate(all_idx) if all_idx else np.empty(0, np.int32)
        data = np.concatenate(all_val) if all_val else np.empty(0, np.float64)
        return cls(np.asarray(indptr), indices, data, (len(indptr) - 1, n_cols))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"need a 2-D array, got shape {dense.shape}")
        rows = []
        for r in range(dense.shape[0]):
            (cols,) = np.nonzero(dense[r])
            rows.append((cols, dense[r, cols]))
        return cls.from_rows(rows, dense.shape[1])

    # -- properties -------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        """Wire size: CSR arrays as shipped to a worker."""
        return (
            self.indptr.size * 8
            + self.indices.size * _INDEX_BYTES
            + self.data.size * _VALUE_BYTES
        )

    @property
    def density(self) -> float:
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    # -- cached derived state ---------------------------------------------
    def _cached_support(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cols, inverse, row_nnz)`` of the column support (compute-once).

        ``cols`` is int64, sorted-unique and frozen (read-only) so it can
        be shared with the :class:`SparseDelta` results of
        :meth:`rmatvec_on_support` without defensive copies.
        """
        if self._support is None:
            cols, inverse = np.unique(self.indices, return_inverse=True)
            cols = cols.astype(np.int64)
            cols.setflags(write=False)
            self._support = (cols, inverse, np.diff(self.indptr))
        return self._support

    # -- kernels ---------------------------------------------------------
    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w for dense ``w`` of length n_cols."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.shape[1],):
            raise ValueError(f"w has shape {w.shape}, need ({self.shape[1]},)")
        if self.nnz == 0:
            return np.zeros(self.shape[0])
        if self._spmv is None:
            return self._build_spmv(w)
        if self._spmv is not False:
            return self._spmv @ w
        return self._matvec_numpy(w)

    def _matvec_numpy(self, w: np.ndarray) -> np.ndarray:
        """Reference kernel: per-row left-to-right accumulation from zero.

        Runs once per matrix when SciPy's handle verifies, so the expanded
        row ids are built per call rather than held for the matrix's life.
        """
        row_ids = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        products = self.data * w[self.indices]
        return np.bincount(row_ids, weights=products, minlength=self.shape[0])

    def _build_spmv(self, w: np.ndarray) -> np.ndarray:
        """Build (and self-verify) the SciPy CSR matvec handle.

        SciPy's csr matvec runs the same per-row left-to-right
        accumulation as the bincount reference, so the results are
        bit-identical — but that is a property of the platform's build,
        not of the API, so the first call checks it.  On any mismatch
        (or without scipy installed) the matrix permanently falls back
        to the numpy kernel.
        """
        reference = self._matvec_numpy(w)
        csr_matrix = _scipy_csr()
        if csr_matrix is None:
            self._spmv = False
            return reference
        handle = csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )
        if (handle @ w).tobytes() == reference.tobytes():
            self._spmv = handle
        else:
            self._spmv = False
        return reference

    def rmatvec_on_support(self, r: np.ndarray) -> "SparseDelta":
        """Xᵀ r restricted to touched columns, as a :class:`SparseDelta`.

        This is the sparse-gradient kernel: with r the per-sample residual,
        the LR gradient only has mass on features present in the batch.
        The column support (one ``np.unique`` over nnz entries) is cached
        per matrix; only the O(nnz) multiply + bincount run per call.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.shape[0],):
            raise ValueError(f"r has shape {r.shape}, need ({self.shape[0]},)")
        if self.nnz == 0:
            return SparseDelta.empty((self.shape[1],))
        cols, inverse, row_nnz = self._cached_support()
        per_entry = self.data * np.repeat(r, row_nnz)
        values = np.bincount(inverse, weights=per_entry, minlength=len(cols))
        return SparseDelta._trusted(cols, values, (self.shape[1],))

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """The sub-matrix of rows ``[start, stop)``.

        A slice of a validated matrix cannot violate the CSR invariants,
        so this skips the O(nnz) validation scan of the public
        constructor (the index/data arrays are shared, not copied).
        """
        start = max(0, start)
        stop = min(self.shape[0], stop)
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix._trusted(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.shape[1]),
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        for r in range(self.shape[0]):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            dense[r, self.indices[lo:hi]] = self.data[lo:hi]
        return dense

    def __repr__(self) -> str:
        return (
            f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz} "
            f"density={self.density:.4f}>"
        )


class SparseDelta:
    """A sparse increment over one parameter tensor.

    Indices are *flat* (``np.ravel`` order), so the same structure covers
    vectors (LR weights) and matrices (PMF factor rows).  Instances are
    value objects: arithmetic returns new deltas, and callers must never
    write to ``indices``/``values`` in place.

    Every delta produced by this repo's kernels (gradients, filters,
    merges) has **sorted, duplicate-free** indices; the
    ``has_sorted_unique_indices`` property tracks the invariant lazily so
    consumers can rely on it without re-scanning.
    """

    __slots__ = ("indices", "values", "shape", "_sorted_unique")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, ...],
    ):
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.shape = tuple(int(s) for s in shape)
        self._sorted_unique: Optional[bool] = None
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices/values must be 1-D and equal length")
        size = int(np.prod(self.shape)) if self.shape else 0
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= size
        ):
            raise ValueError("flat index out of range for shape")

    @classmethod
    def _trusted(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, ...],
        sorted_unique: Optional[bool] = True,
    ) -> "SparseDelta":
        """Internal constructor for arrays already known to be valid.

        Skips the O(nnz) range scan; callers guarantee dtypes (int64 /
        float64, contiguous), bounds, and the ``sorted_unique`` claim.
        """
        obj = cls.__new__(cls)
        obj.indices = indices
        obj.values = values
        obj.shape = tuple(int(s) for s in shape)
        obj._sorted_unique = sorted_unique
        return obj

    @classmethod
    def empty(cls, shape: Tuple[int, ...]) -> "SparseDelta":
        return cls._trusted(np.empty(0, np.int64), np.empty(0, np.float64), shape)

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> "SparseDelta":
        """Extract the nonzero (or masked) entries of a dense tensor."""
        flat = np.ravel(dense)
        if mask is not None:
            sel = np.flatnonzero(np.ravel(mask))
        else:
            sel = flat_nonzero(flat)
        return cls._trusted(sel, np.ascontiguousarray(flat[sel]), dense.shape)

    # -- properties -------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Wire size of the update as MLLess would serialize it."""
        return self.nnz * (_INDEX_BYTES + _VALUE_BYTES)

    @property
    def has_sorted_unique_indices(self) -> bool:
        """True when indices are strictly increasing (checked lazily once)."""
        if self._sorted_unique is None:
            self._sorted_unique = bool(np.all(np.diff(self.indices) > 0))
        return self._sorted_unique

    # -- arithmetic -------------------------------------------------------
    def _with_values(self, values: np.ndarray) -> "SparseDelta":
        """Same support, new values (float64, one per index).

        The indices are this delta's own array, so its range check and
        its sortedness flag carry over instead of being redone.
        """
        return SparseDelta._trusted(
            self.indices, values, self.shape, self._sorted_unique
        )

    def scale(self, factor: float) -> "SparseDelta":
        return self._with_values(self.values * factor)

    def merge(self, other: "SparseDelta") -> "SparseDelta":
        """Sum of two deltas over the same tensor (indices deduplicated).

        Always returns a delta whose arrays alias neither input — an
        empty side yields a defensive copy of the other, never the other
        object's own arrays.
        """
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self.nnz == 0:
            return other._copy()
        if other.nnz == 0:
            return self._copy()
        idx = np.concatenate([self.indices, other.indices])
        val = np.concatenate([self.values, other.values])
        uniq, inverse = np.unique(idx, return_inverse=True)
        summed = np.bincount(inverse, weights=val, minlength=len(uniq))
        return SparseDelta._trusted(uniq, summed, self.shape)

    @classmethod
    def merge_many(
        cls,
        deltas: "Sequence[SparseDelta]",
        shape: Optional[Tuple[int, ...]] = None,
    ) -> "SparseDelta":
        """Sum of n deltas over the same tensor (indices deduplicated).

        One concatenate and one ``np.unique`` over all entries, instead
        of the O(k) pairwise merges of a fold — and bit-identical to that
        fold, because both accumulate each index's contributions in input
        order starting from zero.  ``shape`` is only needed when
        ``deltas`` may be empty.
        """
        deltas = [d for d in deltas if d.nnz]
        if not deltas:
            if shape is None:
                raise ValueError("merge_many of no deltas needs an explicit shape")
            return cls.empty(shape)
        first_shape = deltas[0].shape
        for d in deltas[1:]:
            if d.shape != first_shape:
                raise ValueError(f"shape mismatch: {first_shape} vs {d.shape}")
        if len(deltas) == 1:
            return deltas[0]._copy()
        idx = np.concatenate([d.indices for d in deltas])
        val = np.concatenate([d.values for d in deltas])
        uniq, inverse = np.unique(idx, return_inverse=True)
        summed = np.bincount(inverse, weights=val, minlength=len(uniq))
        return cls._trusted(uniq, summed, first_shape)

    def _copy(self) -> "SparseDelta":
        """An independent copy (fresh index/value arrays)."""
        return SparseDelta._trusted(
            self.indices.copy(), self.values.copy(), self.shape, self._sorted_unique
        )

    def apply_to(self, dense: np.ndarray) -> None:
        """In-place ``dense[flat idx] += values``.

        Uses ``np.add.at``: on NumPy >= 1.25 the ufunc ``.at`` fast path
        is the quickest correct scatter-add (measurably faster than the
        gather/add/scatter of a fancy-index ``+=``).
        """
        if dense.shape != self.shape:
            raise ValueError(f"shape mismatch: {dense.shape} vs {self.shape}")
        if self.nnz:
            np.add.at(np.ravel(dense), self.indices, self.values)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        self.apply_to(dense)
        return dense

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self) -> str:
        return f"<SparseDelta shape={self.shape} nnz={self.nnz}>"
