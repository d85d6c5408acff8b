"""Pipeline-parallel MLP runs: overlap, cost accounting, validation."""

import numpy as np
import pytest

from repro import JobConfig, run_mlless
from repro.experiments.common import mlless_config
from repro.experiments.settings import WORKLOADS
from repro.ml.data import MLPSpec, mlp_synth
from repro.ml.models import LayeredMLP
from repro.ml.optim import Adam
from repro.scenarios.kpi import reconcile_single_job

from .conftest import make_model, make_optimizer


def pipeline_config(**overrides):
    kwargs = dict(
        n_workers=3,
        target_loss=-1.0,  # run to max_steps: the overlap assertions
        max_steps=25,      # need the full window
        seed=5,
        pipeline_stages=3,
        micro_batches=4,
    )
    kwargs.update(overrides)
    return mlless_config(WORKLOADS["mlp-synth"](), **kwargs)


def net_series(result, name):
    """(peak, net) of a +1/-1 delta series from the run monitor."""
    levels = np.cumsum(result.monitor.series(name).values)
    return float(levels.max()), float(levels[-1])


def test_pipeline_trains_with_overlapping_micro_batches():
    result = run_mlless(pipeline_config())
    assert result.total_steps == 25
    _times, losses = result.losses()
    assert losses[-1] < losses[0]
    # >= 2 micro-batches genuinely in flight at once, and every injected
    # micro-batch drained by the end of the run (no leaks)
    inflight_peak, inflight_net = net_series(result, "pipeline_inflight")
    assert inflight_peak >= 2
    assert inflight_net == 0
    # all three stage functions were busy simultaneously
    busy_peak, busy_net = net_series(result, "stage_busy")
    assert busy_peak == 3
    assert busy_net == 0


def test_pipeline_bill_reconciles():
    result = run_mlless(pipeline_config())
    reconciliation = reconcile_single_job(result)
    assert reconciliation["abs_error_usd"] <= 1e-9
    assert result.meter.total_cost() > 0


def test_pipeline_is_deterministic():
    a = run_mlless(pipeline_config())
    b = run_mlless(pipeline_config())
    assert a.exec_time == b.exec_time
    np.testing.assert_array_equal(a.losses()[1], b.losses()[1])


def test_pipeline_local_backend_matches_sim_loss():
    config = dict(max_steps=10, micro_batches=2)
    sim = run_mlless(pipeline_config(**config))
    local = run_mlless(pipeline_config(**config), backend="local")
    assert local.total_steps == sim.total_steps == 10
    np.testing.assert_allclose(
        local.losses()[1], sim.losses()[1], rtol=0.0, atol=1e-9
    )


# -- configuration validation ------------------------------------------------


def mlp_job(**overrides):
    spec = MLPSpec(n_samples=900, n_features=8, hidden=(6, 6), batch_size=150)
    kwargs = dict(
        model=LayeredMLP([8, 6, 6, 1]),
        make_optimizer=lambda: Adam(lr=0.01),
        dataset=mlp_synth(spec, seed=3),
        n_workers=3,
        max_steps=5,
        pipeline_stages=3,
        micro_batches=2,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


def test_pipeline_requires_bsp_sync():
    with pytest.raises(ValueError, match="sync must be 'bsp'"):
        mlp_job(sync="ssp")


def test_pipeline_rejects_significance_filter():
    with pytest.raises(ValueError, match="data-parallel-only"):
        mlp_job(significance_v=0.5)


def test_pipeline_requires_one_worker_per_stage():
    with pytest.raises(ValueError, match="must equal"):
        mlp_job(n_workers=2)


def test_pipeline_requires_stageable_model(small_dataset):
    with pytest.raises(ValueError, match="not stageable"):
        JobConfig(
            model=make_model(),
            make_optimizer=make_optimizer,
            dataset=small_dataset,
            n_workers=3,
            max_steps=5,
            pipeline_stages=3,
        )


def test_pipeline_depth_capped_by_layer_count():
    # 3 weight layers cannot fill 4 stages — fail at config time
    with pytest.raises(ValueError, match="n_stages"):
        mlp_job(n_workers=4, pipeline_stages=4)
