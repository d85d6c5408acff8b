"""Checkpoint/relaunch at the FaaS duration cap (workers and supervisor)."""

from repro import JobConfig, run_mlless
from repro.api import build_world
from repro.faas import FaaSLimits, FaaSPlatform
from repro.sim import RandomStreams

from .conftest import make_model, make_optimizer


def run_with_duration_cap(monkeypatch, dataset, cap_s, margin_s, max_steps=120):
    """Run MLLess on a platform whose functions die after ``cap_s``."""
    monkeypatch.setattr(JobConfig, "relaunch_margin_s", margin_s)
    world = build_world(seed=11)
    # Replace the platform with one enforcing a short duration cap.
    world.platform = FaaSPlatform(
        world.env,
        RandomStreams(seed=123),
        limits=FaaSLimits(max_duration_s=cap_s),
    )
    world.meter.faas = world.platform.billing
    config = JobConfig(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=dataset,
        n_workers=3,
        significance_v=0.7,
        target_loss=-1.0,
        max_steps=max_steps,
        seed=11,
    )
    return world, run_mlless(config, world=world)


def test_run_completes_across_relaunches(small_dataset, monkeypatch):
    # The run outlives the 6 s cap several times over; checkpointing at a
    # 2 s margin must carry it through.
    world, result = run_with_duration_cap(
        monkeypatch, small_dataset, cap_s=6.0, margin_s=2.0
    )
    assert result.total_steps == 120
    # Multiple activations per role prove relaunches happened.
    worker_acts = [
        a for a in world.platform.activations if a.function == "mlless-worker"
    ]
    assert len(worker_acts) > 3


def test_no_activation_hits_the_cap(small_dataset, monkeypatch):
    world, _result = run_with_duration_cap(
        monkeypatch, small_dataset, cap_s=6.0, margin_s=2.0
    )
    assert all(r.ok for r in world.platform.billing.records)


def test_relaunch_preserves_loss_trajectory(small_dataset, monkeypatch):
    # A run with relaunches must produce the same loss-by-step sequence as
    # an uncapped run (checkpointing is transparent to the algorithm).
    _w1, capped = run_with_duration_cap(
        monkeypatch, small_dataset, cap_s=6.0, margin_s=2.0, max_steps=60
    )
    world = build_world(seed=11)
    config = JobConfig(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=small_dataset,
        n_workers=3,
        significance_v=0.7,
        target_loss=-1.0,
        max_steps=60,
        seed=11,
    )
    uncapped = run_mlless(config, world=world)
    import numpy as np

    np.testing.assert_allclose(
        capped.monitor.series("loss_by_step").as_arrays()[1],
        uncapped.monitor.series("loss_by_step").as_arrays()[1],
        rtol=1e-9,
    )


def test_relaunch_overhead_is_modest(small_dataset, monkeypatch):
    # Checkpoint/relaunch adds activations but only small wall-time
    # overhead (a KV write + a warm dispatch each time).
    _w1, capped = run_with_duration_cap(
        monkeypatch, small_dataset, cap_s=6.0, margin_s=2.0, max_steps=60
    )
    world = build_world(seed=11)
    config = JobConfig(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=small_dataset,
        n_workers=3,
        significance_v=0.7,
        target_loss=-1.0,
        max_steps=60,
        seed=11,
    )
    uncapped = run_mlless(config, world=world)
    assert capped.exec_time < uncapped.exec_time * 1.25
