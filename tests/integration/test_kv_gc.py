"""The supervisor garbage-collects consumed update keys from the KV store."""

from repro import JobConfig, run_mlless
from repro.api import build_world

from .conftest import make_model, make_optimizer


def test_old_update_keys_are_collected(small_dataset):
    world = build_world(seed=11)
    config = JobConfig(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=small_dataset,
        n_workers=4,
        significance_v=0.0,   # BSP: every worker pushes every step
        target_loss=-1.0,
        max_steps=40,
        seed=11,
    )
    run_mlless(config, world=world)
    # Without GC there would be ~40 steps x 4 workers keys; with GC only
    # the last couple of steps survive.
    assert world.kv.key_count() < 4 * 5
    assert world.kv.metrics.requests.get("delete", 0) > 100


def test_gc_does_not_break_training(small_dataset):
    config = JobConfig(
        model=make_model(),
        make_optimizer=make_optimizer,
        dataset=small_dataset,
        n_workers=4,
        significance_v=0.7,
        target_loss=0.70,
        max_steps=400,
        seed=11,
    )
    result = run_mlless(config)
    assert result.converged
