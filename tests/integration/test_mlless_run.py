"""End-to-end MLLess runs: convergence, cost accounting, BSP/ISP behavior."""

import numpy as np
import pytest

from repro import JobConfig, run_mlless
from repro.api import build_world, make_runtime
from repro.core import MLLessDriver

from .conftest import make_model, make_optimizer


def config_for(dataset, **overrides):
    kwargs = dict(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=dataset,
        n_workers=4,
        significance_v=0.0,
        target_loss=0.70,
        max_steps=300,
        seed=11,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


def test_bsp_run_converges(small_dataset):
    result = run_mlless(config_for(small_dataset))
    assert result.converged
    assert result.final_loss <= 0.70
    assert result.total_steps > 1
    assert result.exec_time > 0


def test_loss_series_decreases_overall(small_dataset):
    result = run_mlless(config_for(small_dataset, target_loss=0.75))
    _times, losses = result.losses()
    assert losses[-1] < losses[0]


def test_cost_includes_functions_and_both_vms(small_dataset):
    result = run_mlless(config_for(small_dataset))
    breakdown = result.meter.breakdown()
    assert set(breakdown) == {"functions", "C1.4x4", "M1.2x16"}
    assert all(v > 0 for v in breakdown.values())


def test_deterministic_given_seed(small_dataset):
    r1 = run_mlless(config_for(small_dataset))
    r2 = run_mlless(config_for(small_dataset))
    assert r1.exec_time == r2.exec_time
    assert r1.total_steps == r2.total_steps
    np.testing.assert_array_equal(r1.losses()[1], r2.losses()[1])


def test_isp_filters_bytes_versus_bsp(small_dataset):
    worlds = {}
    for v in (0.0, 0.7):
        world = build_world(seed=11)
        cfg = config_for(small_dataset, significance_v=v, max_steps=40,
                         target_loss=-1.0)
        run_mlless(cfg, world=world)
        worlds[v] = world.kv.metrics.bytes_in
    assert worlds[0.7] < worlds[0.0]


def test_isp_replicas_stay_close_to_each_other(small_dataset):
    # Run ISP and check worker checkpoints... replicas are internal; we
    # instead assert the run still converges (bounded divergence).
    result = run_mlless(config_for(small_dataset, significance_v=0.7))
    assert result.converged


def test_max_steps_cap_respected(small_dataset):
    result = run_mlless(config_for(small_dataset, target_loss=-1.0, max_steps=17))
    assert result.total_steps == 17
    assert not result.converged


def test_max_time_cap_respected(small_dataset, monkeypatch):
    monkeypatch.setattr(JobConfig, "max_time_s", 3.0)
    result = run_mlless(
        config_for(small_dataset, target_loss=-1.0, max_steps=10_000)
    )
    assert not result.converged
    assert result.exec_time < 60.0


def test_single_worker_runs(small_dataset):
    result = run_mlless(config_for(small_dataset, n_workers=1, target_loss=-1.0,
                                   max_steps=30))
    assert result.total_steps == 30


def test_workers_series_recorded(small_dataset):
    result = run_mlless(config_for(small_dataset))
    assert result.final_worker_count() == 4


def test_more_workers_slower_steps(small_dataset):
    durations = {}
    for p in (2, 8):
        cfg = config_for(small_dataset, n_workers=p, target_loss=-1.0,
                         max_steps=25)
        durations[p] = run_mlless(cfg).mean_step_duration()
    assert durations[8] > durations[2]


def test_driver_process_composes(small_dataset):
    world = build_world(seed=11)
    cfg = config_for(small_dataset, max_steps=20, target_loss=-1.0)
    runtime = make_runtime(world, cfg)
    driver = MLLessDriver(world.env, world.platform, runtime, meter=world.meter)
    proc = world.env.process(driver.run_process())
    world.env.run(until=proc)
    assert driver.result is not None
    assert driver.result.total_steps == 20


def test_config_validation(small_dataset):
    with pytest.raises(ValueError):
        config_for(small_dataset, n_workers=0)
    with pytest.raises(ValueError):
        config_for(small_dataset, significance_v=-0.5)
    with pytest.raises(ValueError):
        config_for(small_dataset, n_workers=1000)  # more workers than batches


def test_sync_model_property(small_dataset):
    assert config_for(small_dataset).sync_model == "bsp"
    assert config_for(small_dataset, significance_v=0.5).sync_model == "isp"
