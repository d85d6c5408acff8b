"""Unit tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.ml import ModelUpdate, ParameterSet
from repro.ml.optim import (
    SGD,
    Adam,
    ConstantLR,
    InverseSqrtLR,
    MomentumSGD,
)
from repro.ml.sparse import SparseDelta


def dense_grad(values):
    values = np.asarray(values, dtype=np.float64)
    return ModelUpdate({"w": SparseDelta.from_dense(values)})


def params(values):
    return ParameterSet({"w": np.asarray(values, dtype=np.float64)})


# --------------------------------------------------------------- schedules
def test_constant_lr():
    assert ConstantLR(0.1).rate(1) == 0.1
    assert ConstantLR(0.1).rate(1000) == 0.1


def test_inverse_sqrt_lr():
    s = InverseSqrtLR(2.0)
    assert s.rate(1) == 2.0
    assert s.rate(4) == 1.0
    assert s.rate(100) == pytest.approx(0.2)


def test_schedules_reject_step_zero():
    for s in [ConstantLR(0.1), InverseSqrtLR(1.0)]:
        with pytest.raises(ValueError):
            s.rate(0)


# --------------------------------------------------------------------- SGD
def test_sgd_step_is_negative_lr_grad():
    opt = SGD(lr=0.1)
    p = params([1.0, 1.0])
    update = opt.step(p, dense_grad([2.0, -4.0]), t=1)
    np.testing.assert_allclose(update["w"].to_dense(), [-0.2, 0.4])


def test_sgd_with_schedule():
    opt = SGD(lr=InverseSqrtLR(1.0))
    p = params([0.0])
    u1 = opt.step(p, dense_grad([1.0]), t=1)
    u4 = opt.step(p, dense_grad([1.0]), t=4)
    assert u1["w"].values[0] == pytest.approx(-1.0)
    assert u4["w"].values[0] == pytest.approx(-0.5)


def test_optimizer_rejects_step_zero():
    with pytest.raises(ValueError):
        SGD(lr=0.1).step(params([0.0]), dense_grad([1.0]), t=0)


def test_optimizer_rejects_unknown_tensor():
    update = ModelUpdate({"zz": SparseDelta.from_dense(np.ones(1))})
    with pytest.raises(KeyError):
        SGD(lr=0.1).step(params([0.0]), update, t=1)


# ---------------------------------------------------------------- momentum
def test_heavy_ball_momentum_matches_reference():
    opt = MomentumSGD(lr=0.1, momentum=0.9, nesterov=False)
    p = params([0.0])
    v = 0.0
    for t in range(1, 5):
        g = float(t)
        v = 0.9 * v + g
        expected = -0.1 * v
        update = opt.step(p, dense_grad([g]), t=t)
        assert update["w"].values[0] == pytest.approx(expected)


def test_nesterov_momentum_matches_reference():
    opt = MomentumSGD(lr=0.1, momentum=0.9, nesterov=True)
    p = params([0.0])
    v = 0.0
    for t in range(1, 5):
        g = 1.0
        v = 0.9 * v + g
        expected = -0.1 * (g + 0.9 * v)
        update = opt.step(p, dense_grad([g]), t=t)
        assert update["w"].values[0] == pytest.approx(expected)


def test_momentum_lazy_state_only_touched_indices():
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    p = params([0.0, 0.0])
    grad = ModelUpdate({"w": SparseDelta(np.array([0]), np.array([1.0]), (2,))})
    opt.step(p, grad, t=1)
    velocity = opt._state["velocity"]["w"]
    assert velocity[0] == 1.0 and velocity[1] == 0.0


def test_momentum_validates():
    with pytest.raises(ValueError):
        MomentumSGD(lr=0.1, momentum=1.0)


# -------------------------------------------------------------------- Adam
def test_adam_matches_reference_implementation():
    opt = Adam(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    p = params([0.0])
    m = v = 0.0
    for t in range(1, 6):
        g = np.sin(t)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        expected = -0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        update = opt.step(p, dense_grad([g]), t=t)
        assert update["w"].values[0] == pytest.approx(expected)


def test_adam_first_step_is_minus_lr_sign():
    opt = Adam(lr=0.01)
    update = opt.step(params([0.0]), dense_grad([123.0]), t=1)
    # Bias-corrected first step has magnitude ~lr regardless of grad scale.
    assert update["w"].values[0] == pytest.approx(-0.01, rel=1e-4)


def test_adam_validates_hyperparams():
    with pytest.raises(ValueError):
        Adam(lr=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        Adam(lr=0.1, beta2=-0.1)
    with pytest.raises(ValueError):
        Adam(lr=0.1, eps=0)


# ------------------------------------------------------------------- reset
def test_reset_clears_state():
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    p = params([0.0])
    opt.step(p, dense_grad([1.0]), t=1)
    assert opt._state
    opt.reset()
    assert not opt._state
    # After reset, the first step behaves like a fresh optimizer.
    u = opt.step(p, dense_grad([1.0]), t=1)
    assert u["w"].values[0] == pytest.approx(-0.1)


def test_multiple_tensors_independent_state():
    opt = MomentumSGD(lr=0.1, momentum=0.9)
    p = ParameterSet({"a": np.zeros(1), "b": np.zeros(1)})
    grad = ModelUpdate(
        {
            "a": SparseDelta.from_dense(np.array([1.0])),
            "b": SparseDelta.from_dense(np.array([2.0])),
        }
    )
    u = opt.step(p, grad, t=1)
    assert u["a"].values[0] == pytest.approx(-0.1)
    assert u["b"].values[0] == pytest.approx(-0.2)
