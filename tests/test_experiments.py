"""Unit tests for the front door (repro.api): workloads, config builders."""

import pytest

from repro.api import WORKLOADS, build_world, make_workload, mlless_config
from repro.ml.models import LogisticRegression, PMF
from repro.ml.optim import Adam, MomentumSGD


def test_registry_has_the_table1_workloads_plus_mlp():
    assert set(WORKLOADS) == {"lr-criteo", "pmf-ml10m", "pmf-ml20m", "mlp-synth"}


def test_lr_workload_matches_table1():
    wl = make_workload("lr-criteo")
    assert isinstance(wl.make_model(), LogisticRegression)
    assert isinstance(wl.make_optimizer(), Adam)
    assert wl.metric == "bce"


def test_pmf_workloads_match_table1():
    for name in ("pmf-ml10m", "pmf-ml20m"):
        wl = make_workload(name)
        model = wl.make_model()
        assert isinstance(model, PMF)
        opt = wl.make_optimizer()
        assert isinstance(opt, MomentumSGD) and opt.nesterov
        assert wl.metric == "rmse"


def test_ml20m_is_larger_than_ml10m():
    m10 = make_workload("pmf-ml10m").make_model()
    m20 = make_workload("pmf-ml20m").make_model()
    assert m20.n_users > m10.n_users
    assert m20.n_movies > m10.n_movies
    assert m20.rank >= m10.rank


def test_deep_target_is_stricter():
    for name in WORKLOADS:
        wl = make_workload(name)
        assert wl.deep_target_loss < wl.target_loss


def test_make_workload_overrides():
    wl = make_workload("lr-criteo", target_loss=0.5)
    assert wl.target_loss == 0.5
    assert make_workload("lr-criteo").target_loss != 0.5


def test_make_workload_unknown_name():
    with pytest.raises(KeyError):
        make_workload("gpt-17")


def test_workload_dataset_deterministic():
    wl = make_workload("pmf-ml10m")
    a = wl.dataset(seed=3)
    b = wl.dataset(seed=3)
    import numpy as np

    np.testing.assert_array_equal(a[0].ratings, b[0].ratings)


def test_mlless_config_builder_defaults():
    wl = make_workload("pmf-ml10m")
    ds = wl.dataset(seed=1)
    cfg = mlless_config(wl, n_workers=4, dataset=ds)
    assert cfg.n_workers == 4
    assert cfg.significance_v == 0.0
    assert cfg.target_loss == wl.target_loss
    assert not cfg.autotuner.enabled


def test_mlless_config_builder_autotune_kwargs():
    wl = make_workload("pmf-ml10m")
    ds = wl.dataset(seed=1)
    cfg = mlless_config(
        wl, n_workers=4, autotune=True, dataset=ds,
        autotuner_kwargs={"epoch_s": 99.0},
    )
    assert cfg.autotuner.enabled
    assert cfg.autotuner.epoch_s == 99.0
    assert cfg.autotuner.delta_s == 2.5  # default preserved


def test_build_world_isolated_instances():
    w1 = build_world(seed=1)
    w2 = build_world(seed=1)
    assert w1.env is not w2.env
    assert w1.platform is not w2.platform
    assert w1.meter.faas is w1.platform.billing
