"""Unit tests for losses, parameter containers and model updates."""

import numpy as np
import pytest

from repro.ml import (
    ModelUpdate,
    ParameterSet,
    bce_loss,
    mse_loss,
    rmse,
    sigmoid,
)
from repro.ml.loss import bce_grad_residual
from repro.ml.sparse import SparseDelta


# -------------------------------------------------------------------- loss
def test_sigmoid_matches_definition():
    z = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(sigmoid(z), 1 / (1 + np.exp(-z)))


def test_sigmoid_numerically_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 1.0
    assert not np.any(np.isnan(out))


def test_bce_loss_perfect_predictions_near_zero():
    probs = np.array([0.9999999, 0.0000001])
    labels = np.array([1.0, 0.0])
    assert bce_loss(probs, labels) < 1e-5


def test_bce_loss_uniform_predictions():
    probs = np.full(4, 0.5)
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    assert bce_loss(probs, labels) == pytest.approx(np.log(2))


def test_bce_loss_clips_extremes():
    assert np.isfinite(bce_loss(np.array([0.0]), np.array([1.0])))


def test_bce_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        bce_loss(np.zeros(3), np.zeros(4))


def test_bce_grad_residual():
    probs = np.array([0.7, 0.2])
    labels = np.array([1.0, 0.0])
    np.testing.assert_allclose(bce_grad_residual(probs, labels), [-0.3, 0.2])


def test_mse_and_rmse():
    preds = np.array([1.0, 2.0])
    targets = np.array([0.0, 0.0])
    assert mse_loss(preds, targets) == pytest.approx(2.5)
    assert rmse(preds, targets) == pytest.approx(np.sqrt(2.5))


def test_mse_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mse_loss(np.zeros(2), np.zeros(3))


# ------------------------------------------------------------ ParameterSet
def make_params():
    return ParameterSet({"w": np.arange(4.0), "b": np.zeros(1)})


def test_parameterset_access_and_names():
    p = make_params()
    assert p.names == ["b", "w"]
    np.testing.assert_allclose(p["w"], [0, 1, 2, 3])
    assert "w" in p and "z" not in p


def test_parameterset_requires_tensors():
    with pytest.raises(ValueError):
        ParameterSet({})


def test_parameterset_counts_and_bytes():
    p = make_params()
    assert p.n_parameters == 5
    assert p.nbytes == 5 * 8


def test_parameterset_copy_is_deep():
    p = make_params()
    q = p.copy()
    q["w"][0] = 99
    assert p["w"][0] == 0


def test_parameterset_apply_update():
    p = make_params()
    update = ModelUpdate({"w": SparseDelta(np.array([1]), np.array([10.0]), (4,))})
    p.apply(update)
    np.testing.assert_allclose(p["w"], [0, 11, 2, 3])


def test_parameterset_apply_unknown_tensor_rejected():
    p = make_params()
    update = ModelUpdate({"zz": SparseDelta.empty((4,))})
    with pytest.raises(KeyError):
        p.apply(update)


def test_parameterset_average_with():
    p = ParameterSet({"w": np.array([2.0, 4.0])})
    q = ParameterSet({"w": np.array([4.0, 0.0])})
    p.average_with(q)
    np.testing.assert_allclose(p["w"], [3.0, 2.0])


def test_parameterset_average_shape_mismatch_rejected():
    p = ParameterSet({"w": np.zeros(2)})
    q = ParameterSet({"w": np.zeros(3)})
    with pytest.raises(ValueError):
        p.average_with(q)


# ------------------------------------------------------------- ModelUpdate
def test_model_update_iteration_sorted():
    u = ModelUpdate(
        {"z": SparseDelta.empty((2,)), "a": SparseDelta.empty((2,))}
    )
    assert [name for name, _ in u] == ["a", "z"]
    assert u.names == ["a", "z"]


def test_model_update_nnz_and_bytes():
    u = ModelUpdate({"w": SparseDelta(np.array([0, 1]), np.ones(2), (5,))})
    assert u.nnz == 2
    assert u.nbytes == 24
    assert not u.is_empty()


def test_empty_update_has_minimum_wire_size():
    u = ModelUpdate({"w": SparseDelta.empty((5,))})
    assert u.is_empty()
    assert u.nbytes == 8  # envelope floor


def test_model_update_scale():
    u = ModelUpdate({"w": SparseDelta(np.array([0]), np.array([2.0]), (2,))})
    np.testing.assert_allclose(u.scale(0.5)["w"].values, [1.0])


def test_model_update_merge_union_of_tensors():
    a = ModelUpdate({"w": SparseDelta(np.array([0]), np.array([1.0]), (2,))})
    b = ModelUpdate(
        {
            "w": SparseDelta(np.array([0]), np.array([2.0]), (2,)),
            "b": SparseDelta(np.array([0]), np.array([5.0]), (1,)),
        }
    )
    merged = a.merge(b)
    np.testing.assert_allclose(merged["w"].to_dense(), [3.0, 0.0])
    np.testing.assert_allclose(merged["b"].to_dense(), [5.0])
