"""Unit tests for the alternative update filters (ablation machinery)."""

import numpy as np
import pytest

from repro.core.filters import DropInsignificantFilter, TopKFilter
from repro.ml import ModelUpdate, ParameterSet
from repro.ml.sparse import SparseDelta


def params_with(w):
    return ParameterSet({"w": np.asarray(w, dtype=np.float64)})


def update_with(indices, values, size=6):
    return ModelUpdate(
        {"w": SparseDelta(np.asarray(indices), np.asarray(values, float), (size,))}
    )


# ------------------------------------------------------------------- drop
def test_drop_filter_discards_insignificant():
    filt = DropInsignificantFilter(0.5, {"w": (6,)})
    p = params_with([1.0] * 6)
    out = filt.step(p, update_with([0, 1], [0.9, 0.1]), t=1)
    assert list(out["w"].indices) == [0]
    # Nothing accumulated: the 0.1 is gone forever.
    assert np.all(filt.accumulated["w"] == 0.0)


def test_drop_filter_v_zero_passes_everything():
    filt = DropInsignificantFilter(0.0, {"w": (6,)})
    p = params_with([1.0] * 6)
    out = filt.step(p, update_with([2, 4], [0.001, -0.002]), t=1)
    assert set(out["w"].indices) == {2, 4}


def test_drop_filter_never_resends():
    filt = DropInsignificantFilter(0.5, {"w": (1,)})
    p = params_with([1.0])
    total_sent = 0
    for t in range(1, 10):
        out = filt.step(p, update_with([0], [0.2], size=1), t=t)
        total_sent += out["w"].nnz
    # Unlike ISP, repeated small updates never become significant.
    # (v_t decays, so very late steps may pass; within 10 steps v_t ~ 0.16
    # and |0.2/1.0| = 0.2 passes from t where 0.5/sqrt(t) < 0.2 -> t >= 7.)
    assert total_sent < 9


def test_drop_filter_rejects_unknown_tensor_like_the_base_filter():
    filt = DropInsignificantFilter(0.5, {"w": (6,)})
    stray = ModelUpdate({"nope": SparseDelta(np.array([0]), np.array([1.0]), (6,))})
    with pytest.raises(KeyError, match="unknown tensor 'nope'"):
        filt.step(params_with([1.0] * 6), stray, t=1)


# ------------------------------------------------------------------ top-k
def test_topk_selects_largest_absolute_entries():
    filt = TopKFilter(0.5, {"w": (6,)})
    p = params_with([1.0] * 6)
    out = filt.step(p, update_with([0, 1, 2, 3], [0.1, -0.9, 0.5, 0.2]), t=1)
    assert set(out["w"].indices) == {1, 2}
    # The rest stays accumulated.
    acc = filt.accumulated["w"]
    assert acc[0] == pytest.approx(0.1) and acc[3] == pytest.approx(0.2)


def test_topk_accumulates_until_selected():
    filt = TopKFilter(0.5, {"w": (2,)})
    p = params_with([1.0, 1.0])
    filt.step(p, update_with([0, 1], [0.1, 0.9], size=2), t=1)
    out = filt.step(p, update_with([0, 1], [0.8, 0.01], size=2), t=2)
    # Index 0 accumulated 0.9 total, now the largest -> broadcast whole
    # history in one delta.
    assert 0 in set(out["w"].indices)
    idx = list(out["w"].indices).index(0)
    assert out["w"].values[idx] == pytest.approx(0.9)


def test_topk_conservation():
    rng = np.random.default_rng(0)
    filt = TopKFilter(0.3, {"w": (20,)})
    p = params_with(rng.normal(size=20))
    total = np.zeros(20)
    sent = np.zeros(20)
    for t in range(1, 15):
        dense = rng.normal(size=20) * (rng.random(20) < 0.4)
        total += dense
        out = filt.step(p, ModelUpdate({"w": SparseDelta.from_dense(dense)}), t)
        out["w"].apply_to(sent)
    np.testing.assert_allclose(sent + filt.accumulated["w"], total, atol=1e-12)


def test_topk_validates_fraction():
    with pytest.raises(ValueError):
        TopKFilter(0.0, {"w": (2,)})
    with pytest.raises(ValueError):
        TopKFilter(1.5, {"w": (2,)})


def test_topk_empty_accumulator():
    filt = TopKFilter(0.5, {"w": (4,)})
    p = params_with([1.0] * 4)
    out = filt.extract_significant(p, t=1)
    assert out.is_empty()


# ---------------------------------------------------------- job integration
def test_custom_filter_factory_used_in_run():
    from repro import JobConfig, run_mlless
    from repro.ml.data import MovieLensSpec, movielens_like
    from repro.ml.models import PMF
    from repro.ml.optim import SGD

    spec = MovieLensSpec(n_users=40, n_movies=30, n_ratings=1500, batch_size=250)
    ds = movielens_like(spec, seed=0)
    config = JobConfig(
        model=PMF(40, 30, rank=3, rating_offset=3.5),
        make_optimizer=lambda: SGD(lr=0.5),
        dataset=ds,
        n_workers=3,
        significance_v=0.7,
        target_loss=-1.0,
        max_steps=12,
        seed=0,
        make_filter=lambda shapes: TopKFilter(0.25, shapes),
    )
    result = run_mlless(config)
    assert result.total_steps == 12
