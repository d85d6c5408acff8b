"""Unit tests for the ISP significance filter (§4.1)."""

import numpy as np
import pytest

from repro.core import SignificanceFilter, threshold_at
from repro.ml import ModelUpdate, ParameterSet
from repro.ml.sparse import SparseDelta


def params_with(w):
    return ParameterSet({"w": np.asarray(w, dtype=np.float64)})


def update_with(indices, values, size=4):
    return ModelUpdate(
        {"w": SparseDelta(np.asarray(indices), np.asarray(values, float), (size,))}
    )


# ---------------------------------------------------------------- threshold
def test_threshold_decays_as_inverse_sqrt():
    assert threshold_at(0.7, 1) == 0.7
    assert threshold_at(0.7, 4) == pytest.approx(0.35)
    assert threshold_at(0.7, 49) == pytest.approx(0.1)


def test_threshold_validates():
    with pytest.raises(ValueError):
        threshold_at(-0.1, 1)
    with pytest.raises(ValueError):
        threshold_at(0.5, 0)


# ------------------------------------------------------------------- filter
def test_v_zero_extracts_every_touched_entry():
    filt = SignificanceFilter(0.0, {"w": (4,)})
    p = params_with([1.0, 1.0, 1.0, 1.0])
    out = filt.step(p, update_with([0, 2], [0.001, -0.001]), t=1)
    assert set(out["w"].indices) == {0, 2}
    # Accumulators fully drained: ISP with v=0 is BSP.
    assert np.all(filt.accumulated["w"] == 0)


def test_significant_entries_extracted_insignificant_accumulated():
    filt = SignificanceFilter(0.5, {"w": (4,)})
    p = params_with([1.0, 1.0, 1.0, 1.0])
    # |0.9/1.0| > 0.5 significant; |0.1/1.0| not.
    out = filt.step(p, update_with([0, 1], [0.9, 0.1]), t=1)
    assert list(out["w"].indices) == [0]
    acc = filt.accumulated["w"]
    assert acc[0] == 0.0 and acc[1] == pytest.approx(0.1)


def test_accumulation_until_significant():
    filt = SignificanceFilter(0.5, {"w": (1,)})
    p = params_with([1.0])
    for t in range(1, 4):
        out = filt.step(p, update_with([0], [0.2], size=1), t=t)
        if out["w"].nnz:
            break
    # Accumulated 0.2 * k eventually crosses v_t = 0.5/sqrt(t).
    assert out["w"].nnz == 1
    # The extracted value carries the FULL accumulated history.
    assert out["w"].values[0] == pytest.approx(0.2 * t)


def test_conservation_extracted_plus_residual_equals_added():
    rng = np.random.default_rng(0)
    filt = SignificanceFilter(0.7, {"w": (50,)})
    p = params_with(rng.normal(size=50))
    total = np.zeros(50)
    extracted = np.zeros(50)
    for t in range(1, 20):
        dense = rng.normal(size=50) * (rng.random(50) < 0.3) * 0.05
        total += dense
        out = filt.step(p, ModelUpdate({"w": SparseDelta.from_dense(dense)}), t)
        out["w"].apply_to(extracted)
    np.testing.assert_allclose(extracted + filt.accumulated["w"], total, atol=1e-12)


def test_relative_test_uses_current_parameter_magnitude():
    filt = SignificanceFilter(0.5, {"w": (2,)})
    # Same absolute update: significant vs tiny parameter, not vs large one.
    p = params_with([0.01, 100.0])
    out = filt.step(p, update_with([0, 1], [0.05, 0.05], size=2), t=1)
    assert list(out["w"].indices) == [0]


def test_decaying_threshold_makes_filter_stricter_early():
    # The same relative update passes at a late step but not at step 1.
    filt = SignificanceFilter(0.5, {"w": (1,)})
    p = params_with([1.0])
    early = filt.step(p, update_with([0], [0.3], size=1), t=1)
    assert early["w"].nnz == 0
    filt2 = SignificanceFilter(0.5, {"w": (1,)})
    late = filt2.step(p, update_with([0], [0.3], size=1), t=100)
    assert late["w"].nnz == 1


def test_multiple_tensors_filtered_independently():
    filt = SignificanceFilter(0.5, {"a": (1,), "b": (1,)})
    p = ParameterSet({"a": np.array([1.0]), "b": np.array([1.0])})
    update = ModelUpdate(
        {
            "a": SparseDelta(np.array([0]), np.array([0.9]), (1,)),
            "b": SparseDelta(np.array([0]), np.array([0.1]), (1,)),
        }
    )
    out = filt.step(p, update, t=1)
    assert out["a"].nnz == 1 and out["b"].nnz == 0


def test_unknown_tensor_rejected():
    filt = SignificanceFilter(0.5, {"w": (2,)})
    with pytest.raises(KeyError):
        filt.add(update_with([0], [1.0], size=2).merge(
            ModelUpdate({"zz": SparseDelta.empty((2,))})
        ))


def test_negative_v_rejected():
    with pytest.raises(ValueError):
        SignificanceFilter(-0.1, {"w": (2,)})


def test_zero_parameter_guard_no_division_error():
    filt = SignificanceFilter(0.5, {"w": (1,)})
    p = params_with([0.0])
    out = filt.step(p, update_with([0], [1e-3], size=1), t=1)
    # |1e-3 / ~0| is huge -> significant despite zero parameter.
    assert out["w"].nnz == 1
