"""Unit tests for CSRMatrix and SparseDelta."""

import sys

import numpy as np
import pytest

from repro.ml.sparse import CSRMatrix, SparseDelta

from .test_hotpath_pins import PINS, _lr_batch, sha_chunks


def random_csr(rng, rows=20, cols=30, density=0.2):
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    return CSRMatrix.from_dense(dense), dense


# --------------------------------------------------------------- CSRMatrix
def test_from_dense_roundtrip():
    rng = np.random.default_rng(0)
    csr, dense = random_csr(rng)
    np.testing.assert_allclose(csr.to_dense(), dense)


def test_from_rows_builds_correctly():
    csr = CSRMatrix.from_rows(
        [(np.array([0, 2]), np.array([1.0, 2.0])),
         (np.array([], dtype=np.int32), np.array([])),
         (np.array([1]), np.array([3.0]))],
        n_cols=3,
    )
    expected = np.array([[1.0, 0, 2.0], [0, 0, 0], [0, 3.0, 0]])
    np.testing.assert_allclose(csr.to_dense(), expected)
    assert csr.nnz == 3


def test_matvec_matches_dense():
    rng = np.random.default_rng(1)
    csr, dense = random_csr(rng)
    w = rng.normal(size=30)
    np.testing.assert_allclose(csr.matvec(w), dense @ w)


def test_matvec_with_empty_rows():
    csr = CSRMatrix.from_dense(np.array([[0.0, 0], [1.0, 2.0], [0, 0]]))
    np.testing.assert_allclose(csr.matvec(np.array([1.0, 1.0])), [0, 3, 0])


def test_matvec_empty_matrix():
    csr = CSRMatrix.from_dense(np.zeros((3, 4)))
    np.testing.assert_allclose(csr.matvec(np.ones(4)), np.zeros(3))


def test_matvec_wrong_shape_rejected():
    csr = CSRMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        csr.matvec(np.ones(4))


def test_rmatvec_on_support_matches_dense():
    rng = np.random.default_rng(2)
    csr, dense = random_csr(rng)
    r = rng.normal(size=20)
    delta = csr.rmatvec_on_support(r)
    np.testing.assert_allclose(delta.to_dense(), dense.T @ r, atol=1e-12)


def test_rmatvec_only_touches_support():
    csr = CSRMatrix.from_dense(np.array([[1.0, 0, 0], [0, 0, 2.0]]))
    delta = csr.rmatvec_on_support(np.array([1.0, 1.0]))
    assert set(delta.indices) == {0, 2}


def test_rmatvec_empty_matrix():
    csr = CSRMatrix.from_dense(np.zeros((2, 5)))
    delta = csr.rmatvec_on_support(np.ones(2))
    assert delta.nnz == 0 and delta.shape == (5,)


def test_row_slice():
    rng = np.random.default_rng(3)
    csr, dense = random_csr(rng)
    sub = csr.row_slice(5, 12)
    np.testing.assert_allclose(sub.to_dense(), dense[5:12])


def test_row_slice_clamps_bounds():
    csr = CSRMatrix.from_dense(np.eye(3))
    sub = csr.row_slice(-5, 100)
    assert sub.shape == (3, 3)


def test_csr_nbytes_positive_and_scales():
    rng = np.random.default_rng(4)
    small, _ = random_csr(rng, density=0.05)
    large, _ = random_csr(rng, density=0.5)
    assert 0 < small.nbytes < large.nbytes


def test_csr_density():
    csr = CSRMatrix.from_dense(np.eye(4))
    assert csr.density == pytest.approx(4 / 16)


def test_csr_validation_rejects_bad_indptr():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 2]), np.array([0], dtype=np.int32),
                  np.array([1.0]), (2, 3))


def test_csr_validation_rejects_out_of_range_column():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 1]), np.array([5], dtype=np.int32),
                  np.array([1.0]), (1, 3))


def test_csr_from_dense_requires_2d():
    with pytest.raises(ValueError):
        CSRMatrix.from_dense(np.zeros(5))


# ------------------------------------------- CSRMatrix without scipy.sparse
def test_matvec_falls_back_to_the_numpy_kernel_without_scipy(monkeypatch):
    backed, w, _r = _lr_batch()  # the kernel.matvec pin's input
    backed.matvec(w)  # the first call builds and self-checks the handle
    assert backed._spmv is not None and backed._spmv is not False
    via_scipy = backed.matvec(w)

    monkeypatch.setitem(sys.modules, "scipy.sparse", None)  # import -> ImportError
    bare = CSRMatrix(backed.indptr, backed.indices, backed.data, backed.shape)
    assert bare._spmv is None
    first = bare.matvec(w)
    assert bare._spmv is False
    for out in (first, bare.matvec(w)):  # the first-use path and the settled one
        assert out.tobytes() == via_scipy.tobytes()
        assert sha_chunks(out) == PINS["kernel.matvec"][1]


def test_row_slices_fall_back_on_their_own(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    rng = np.random.default_rng(7)
    csr, dense = random_csr(rng)
    part = csr.row_slice(5, 15)  # _trusted: resolves nothing until its first matvec
    w = rng.normal(size=30)
    np.testing.assert_allclose(part.matvec(w), dense[5:15] @ w)
    assert part._spmv is False and csr._spmv is None


# -------------------------------------------------------------- SparseDelta
def test_delta_from_dense_and_back():
    dense = np.array([[0.0, 1.5], [2.5, 0.0]])
    delta = SparseDelta.from_dense(dense)
    assert delta.nnz == 2
    np.testing.assert_allclose(delta.to_dense(), dense)


def test_delta_from_dense_with_mask():
    dense = np.array([1.0, 2.0, 3.0])
    mask = np.array([True, False, True])
    delta = SparseDelta.from_dense(dense, mask=mask)
    np.testing.assert_allclose(delta.to_dense(), [1.0, 0.0, 3.0])


def test_delta_apply_to_accumulates():
    buf = np.ones((2, 2))
    delta = SparseDelta(np.array([0, 3]), np.array([1.0, -1.0]), (2, 2))
    delta.apply_to(buf)
    np.testing.assert_allclose(buf, [[2.0, 1.0], [1.0, 0.0]])


def test_delta_apply_shape_mismatch_rejected():
    delta = SparseDelta.empty((3,))
    with pytest.raises(ValueError):
        delta.apply_to(np.zeros(4))


def test_delta_merge_sums_duplicates():
    a = SparseDelta(np.array([0, 1]), np.array([1.0, 2.0]), (3,))
    b = SparseDelta(np.array([1, 2]), np.array([10.0, 20.0]), (3,))
    merged = a.merge(b)
    np.testing.assert_allclose(merged.to_dense(), [1.0, 12.0, 20.0])


def test_delta_merge_with_empty():
    a = SparseDelta(np.array([0]), np.array([1.0]), (3,))
    empty = SparseDelta.empty((3,))
    for merged in (a.merge(empty), empty.merge(a)):
        np.testing.assert_array_equal(merged.indices, a.indices)
        np.testing.assert_array_equal(merged.values, a.values)
        # Value objects: no aliasing even on the empty-side shortcut —
        # mutating the merge result must never reach back into an input.
        assert merged is not a
        assert not np.shares_memory(merged.values, a.values)
        assert not np.shares_memory(merged.indices, a.indices)


def test_delta_merge_shape_mismatch_rejected():
    a = SparseDelta.empty((3,))
    b = SparseDelta.empty((4,))
    with pytest.raises(ValueError):
        a.merge(b)


def test_delta_scale():
    delta = SparseDelta(np.array([1]), np.array([2.0]), (3,))
    np.testing.assert_allclose(delta.scale(-0.5).to_dense(), [0, -1.0, 0])


def test_delta_nbytes_wire_format():
    delta = SparseDelta(np.arange(10), np.ones(10), (100,))
    assert delta.nbytes == 10 * 12


def test_delta_norm():
    delta = SparseDelta(np.array([0, 1]), np.array([3.0, 4.0]), (2,))
    assert delta.norm() == pytest.approx(5.0)


def test_delta_validates_index_range():
    with pytest.raises(ValueError):
        SparseDelta(np.array([5]), np.array([1.0]), (3,))
    with pytest.raises(ValueError):
        SparseDelta(np.array([-1]), np.array([1.0]), (3,))


def test_delta_validates_lengths():
    with pytest.raises(ValueError):
        SparseDelta(np.array([0, 1]), np.array([1.0]), (3,))
