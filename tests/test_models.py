"""Unit tests for the models: gradients checked against numerical ones."""

import numpy as np
import pytest

from repro.ml.data.dataset import LRBatch, PMFBatch
from repro.ml.models import LogisticRegression, PMF
from repro.ml.sparse import CSRMatrix


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def small_lr_batch(seed=0, n=8, d=6):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, d)) * (rng.random((n, d)) < 0.5)
    y = (rng.random(n) < 0.5).astype(np.float64)
    return LRBatch(CSRMatrix.from_dense(dense), y)


# ---------------------------------------------------- logistic regression
def test_lr_gradient_matches_numerical():
    model = LogisticRegression(n_features=6, l2=0.0)
    batch = small_lr_batch()
    rng = np.random.default_rng(1)
    params = model.init_params(rng)
    params["w"][:] = rng.normal(size=6) * 0.5
    params["b"][0] = 0.3

    loss, grad = model.gradient(params, batch)
    assert loss == pytest.approx(model.loss(params, batch))

    num_w = numerical_grad(lambda: model.loss(params, batch), params["w"])
    np.testing.assert_allclose(grad["w"].to_dense(), num_w, atol=1e-6)
    num_b = numerical_grad(lambda: model.loss(params, batch), params["b"])
    np.testing.assert_allclose(grad["b"].to_dense(), num_b, atol=1e-6)


def test_lr_gradient_with_l2_regularization():
    model = LogisticRegression(n_features=6, l2=0.1)
    batch = small_lr_batch()
    rng = np.random.default_rng(2)
    params = model.init_params(rng)
    params["w"][:] = rng.normal(size=6)

    plain = LogisticRegression(n_features=6, l2=0.0)
    _, g_plain = plain.gradient(params, batch)
    _, g_reg = model.gradient(params, batch)
    idx = g_reg["w"].indices
    np.testing.assert_allclose(
        g_reg["w"].values,
        g_plain["w"].values + 0.1 * params["w"][idx],
        atol=1e-12,
    )


def test_lr_init_zero_by_default():
    model = LogisticRegression(n_features=4)
    params = model.init_params(np.random.default_rng(0))
    np.testing.assert_allclose(params["w"], 0)


def test_lr_init_scale_randomizes():
    model = LogisticRegression(n_features=4, init_scale=0.1)
    params = model.init_params(np.random.default_rng(0))
    assert np.any(params["w"] != 0)


def test_lr_gradient_is_sparse_on_support():
    model = LogisticRegression(n_features=100)
    batch = small_lr_batch(d=6)
    # embed the 6-col batch into 100 features
    wide = LRBatch(
        CSRMatrix(batch.X.indptr, batch.X.indices, batch.X.data, (8, 100)),
        batch.y,
    )
    params = model.init_params(np.random.default_rng(0))
    _, grad = model.gradient(params, wide)
    assert grad["w"].nnz <= 6


def test_lr_predict_probabilities_in_unit_interval():
    model = LogisticRegression(n_features=6)
    batch = small_lr_batch()
    params = model.init_params(np.random.default_rng(0))
    probs = model.predict(params, batch)
    assert np.all((probs >= 0) & (probs <= 1))


def test_lr_cost_model_methods():
    model = LogisticRegression(n_features=1000)
    batch = small_lr_batch(d=6)
    wide = LRBatch(
        CSRMatrix(batch.X.indptr, batch.X.indices, batch.X.data, (8, 1000)),
        batch.y,
    )
    assert model.sparse_step_flops(wide) < model.dense_step_flops(wide)
    assert model.dense_gradient_bytes() == 1001 * 8
    assert model.sparse_entries(wide) == wide.X.nnz


def test_lr_validates_arguments():
    with pytest.raises(ValueError):
        LogisticRegression(n_features=0)
    with pytest.raises(ValueError):
        LogisticRegression(n_features=5, l2=-1)


# --------------------------------------------------------------------- PMF
def small_pmf_batch(seed=0, n=10, users=5, movies=4):
    rng = np.random.default_rng(seed)
    return PMFBatch(
        rng.integers(0, users, n).astype(np.int32),
        rng.integers(0, movies, n).astype(np.int32),
        rng.uniform(1, 5, n),
    )


def test_pmf_gradient_matches_numerical():
    model = PMF(n_users=5, n_movies=4, rank=3, l2=0.05, init_scale=0.3)
    batch = small_pmf_batch()
    params = model.init_params(np.random.default_rng(1))

    def full_loss():
        # gradient() differentiates MSE + (l2/n) * 0.5*||.||^2-style rows;
        # reconstruct the exact objective its gradient encodes.
        preds = model.predict(params, batch)
        err = preds - batch.ratings
        reg = 0.0
        for rows, tensor in ((batch.users, params["U"]), (batch.movies, params["M"])):
            reg += np.sum(tensor[rows] ** 2)
        return float(np.mean(err**2) + 0.5 * model.l2 * reg / batch.n)

    _, grad = model.gradient(params, batch)
    num_U = numerical_grad(full_loss, params["U"])
    num_M = numerical_grad(full_loss, params["M"])
    np.testing.assert_allclose(grad["U"].to_dense(), num_U, atol=1e-5)
    np.testing.assert_allclose(grad["M"].to_dense(), num_M, atol=1e-5)


def test_pmf_loss_is_rmse():
    model = PMF(n_users=3, n_movies=3, rank=2, l2=0.0, rating_offset=3.0)
    params = model.init_params(np.random.default_rng(0))
    params["U"][:] = 0
    params["M"][:] = 0
    batch = PMFBatch(
        np.array([0, 1], dtype=np.int32),
        np.array([0, 1], dtype=np.int32),
        np.array([3.0, 5.0]),
    )
    # predictions are exactly the offset 3.0 -> errors [0, 2]
    assert model.loss(params, batch) == pytest.approx(np.sqrt(2.0))


def test_pmf_gradient_touches_only_batch_rows():
    model = PMF(n_users=10, n_movies=10, rank=2, l2=0.0)
    params = model.init_params(np.random.default_rng(0))
    batch = PMFBatch(
        np.array([1, 1], dtype=np.int32),
        np.array([2, 3], dtype=np.int32),
        np.array([4.0, 2.0]),
    )
    _, grad = model.gradient(params, batch)
    touched_users = set(grad["U"].indices // 2)
    touched_movies = set(grad["M"].indices // 2)
    assert touched_users == {1}
    assert touched_movies == {2, 3}


def test_pmf_duplicate_rows_summed():
    model = PMF(n_users=2, n_movies=2, rank=2, l2=0.0)
    params = model.init_params(np.random.default_rng(0))
    single = PMFBatch(
        np.array([0], dtype=np.int32), np.array([0], dtype=np.int32),
        np.array([4.0]),
    )
    double = PMFBatch(
        np.array([0, 0], dtype=np.int32), np.array([0, 0], dtype=np.int32),
        np.array([4.0, 4.0]),
    )
    _, g1 = model.gradient(params, single)
    _, g2 = model.gradient(params, double)
    # Same mean gradient: duplicates sum but n doubles.
    np.testing.assert_allclose(g1["U"].to_dense(), g2["U"].to_dense(), atol=1e-12)


def test_pmf_cost_model_methods():
    model = PMF(n_users=100, n_movies=200, rank=8)
    batch = small_pmf_batch()
    assert model.dense_gradient_bytes() == 300 * 8 * 8
    assert model.sparse_entries(batch) == 2 * batch.n * 8
    assert model.sparse_step_flops(batch) < model.dense_step_flops(batch)


def test_pmf_validates_arguments():
    with pytest.raises(ValueError):
        PMF(n_users=0, n_movies=5)
    with pytest.raises(ValueError):
        PMF(n_users=5, n_movies=5, l2=-0.1)
